//! Scoreboard: replay every shipped policy over every workload's ledger
//! and render the results as the `gym_report` table plus a JSON blob for
//! committed benchmark artifacts.

use crate::replay::{replay, Ledger, Replay};
use versa_bench::{Cell, FigureResult};
use versa_core::PolicyKind;

/// All shipped policies replayed over one workload's ledger.
#[derive(Debug)]
pub struct WorkloadScores {
    /// Workload label, e.g. `mm_wide_sim`.
    pub name: String,
    /// Engine that recorded the ledger (`sim`/`native`).
    pub engine: String,
    /// One replay per shipped policy, in [`PolicyKind::shipped`] order.
    pub replays: Vec<Replay>,
}

/// Score every shipped policy against `ledger`.
pub fn score_workload(name: &str, engine: &str, ledger: &Ledger) -> WorkloadScores {
    WorkloadScores {
        name: name.to_string(),
        engine: engine.to_string(),
        replays: PolicyKind::shipped().into_iter().map(|k| replay(ledger, k)).collect(),
    }
}

/// Render the scoreboard as the `gym_report` figure table.
pub fn gym_report(scores: &[WorkloadScores]) -> FigureResult {
    let mut fig = FigureResult::new(
        "gym_report",
        "Scheduler gym: policy replay scores over recorded decision ledgers",
        &[
            "workload",
            "engine",
            "policy",
            "decisions",
            "ver-agree",
            "place-agree",
            "learning",
            "regret-ms",
            "makespan-ms",
        ],
    );
    for w in scores {
        for r in &w.replays {
            fig.push_row(vec![
                Cell::text(&w.name),
                Cell::text(&w.engine),
                Cell::text(&r.policy),
                Cell::num_p(r.score.decisions as f64, 0),
                Cell::num_p(r.score.version_agreement, 3),
                Cell::num_p(r.score.placement_agreement, 3),
                Cell::num_p(r.score.learning_decisions as f64, 0),
                Cell::num_p(r.score.learning_cost.as_secs_f64() * 1e3, 3),
                Cell::num_p(r.score.makespan_proxy.as_secs_f64() * 1e3, 3),
            ]);
        }
    }
    fig.note(
        "agreement = fraction of decisions matching the recorded ledger; \
         round-robin is the identity policy and must score 1.000 on both.",
    );
    fig.note(
        "regret = sum over decisions of oracle(chosen) - oracle(best candidate); \
         makespan = queueing-free per-worker clock proxy (ranking metric, not wall time).",
    );
    fig
}

fn json_escape(s: &str) -> String {
    s.replace('\\', "\\\\").replace('"', "\\\"")
}

/// Serialize the scoreboard as JSON (hand-rolled — the workspace carries
/// no serde), in the shape of the other committed `BENCH_*.json` files.
pub fn to_json(scores: &[WorkloadScores]) -> String {
    let mut out = String::from("{\n  \"bench\": \"gym_report\",\n  \"workloads\": [\n");
    for (wi, w) in scores.iter().enumerate() {
        out.push_str(&format!(
            "    {{\"name\": \"{}\", \"engine\": \"{}\", \"policies\": [\n",
            json_escape(&w.name),
            json_escape(&w.engine)
        ));
        for (ri, r) in w.replays.iter().enumerate() {
            out.push_str(&format!(
                "      {{\"policy\": \"{}\", \"decisions\": {}, \
                 \"version_agreement\": {:.6}, \"placement_agreement\": {:.6}, \
                 \"learning_decisions\": {}, \"regret_ms\": {:.6}, \
                 \"makespan_proxy_ms\": {:.6}, \"mismatches\": {}}}{}\n",
                json_escape(&r.policy),
                r.score.decisions,
                r.score.version_agreement,
                r.score.placement_agreement,
                r.score.learning_decisions,
                r.score.learning_cost.as_secs_f64() * 1e3,
                r.score.makespan_proxy.as_secs_f64() * 1e3,
                r.mismatches.len(),
                if ri + 1 < w.replays.len() { "," } else { "" }
            ));
        }
        out.push_str(&format!(
            "    ]}}{}\n",
            if wi + 1 < scores.len() { "," } else { "" }
        ));
    }
    out.push_str("  ]\n}\n");
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::record::record_sim;

    #[test]
    fn scoreboard_covers_all_shipped_policies_and_identity_is_exact() {
        let trace = record_sim("mm-wide").unwrap();
        let ledger = Ledger::from_trace(&trace).unwrap();
        let scores = vec![score_workload("mm_wide_sim", "sim", &ledger)];

        let labels: Vec<&str> = PolicyKind::shipped().iter().map(PolicyKind::label).collect();
        assert_eq!(labels, ["round-robin", "representative-set"]);
        let shipped = labels.len();
        assert_eq!(scores[0].replays.len(), shipped);
        let identity = &scores[0].replays[0];
        assert_eq!(identity.policy, "round-robin");
        assert_eq!(identity.score.version_agreement, 1.0);
        assert_eq!(identity.score.placement_agreement, 1.0);
        assert!(identity.mismatches.is_empty());

        let fig = gym_report(&scores);
        assert_eq!(fig.rows.len(), shipped);
        let json = to_json(&scores);
        assert!(json.contains("\"policy\": \"representative-set\""));
        assert!(json.contains("\"bench\": \"gym_report\""));
    }
}

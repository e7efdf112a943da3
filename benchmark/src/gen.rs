//! Seeded input generation. Every datum, arrival and platform seed of a
//! run derives from `--seed`; the program under test only ever sees the
//! generated inputs.

use std::time::Duration;

/// splitmix64 finalizer: a bijective scramble used both to seed the
/// stream generator and to hash coordinates into values.
fn mix(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    x = (x ^ (x >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    x ^ (x >> 31)
}

/// An independent sub-seed of `seed` for stream number `stream`.
pub fn derive(seed: u64, stream: u64) -> u64 {
    mix(mix(seed) ^ stream.wrapping_mul(0xD6E8_FEB8_6659_FD93))
}

/// xorshift64* over a splitmix-scrambled seed.
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64) -> Rng {
        Rng(mix(seed) | 1)
    }

    pub fn next_u64(&mut self) -> u64 {
        let mut x = self.0;
        x ^= x >> 12;
        x ^= x << 25;
        x ^= x >> 27;
        self.0 = x;
        x.wrapping_mul(0x2545_F491_4F6C_DD1D)
    }

    /// Uniform in (0, 1].
    pub fn unit(&mut self) -> f64 {
        ((self.next_u64() >> 11) as f64 + 1.0) / (1u64 << 53) as f64
    }

    /// Uniform in [-1, 1).
    pub fn sym(&mut self) -> f64 {
        1.0 - 2.0 * self.unit()
    }

    pub fn below(&mut self, n: usize) -> usize {
        (self.next_u64() % n as u64) as usize
    }
}

/// A `bs × bs` f64 tile with entries in [-1, 1).
pub fn tile_f64(bs: usize, seed: u64) -> Vec<f64> {
    let mut rng = Rng::new(seed);
    (0..bs * bs).map(|_| rng.sym()).collect()
}

/// Entry `(i, j)` of the seeded symmetric, strictly diagonally dominant
/// (hence SPD) `n × n` matrix: `n` on the diagonal, a hash of the
/// unordered index pair in [-1, 1) elsewhere. O(1) per entry, so the
/// Cholesky residual check needs no stored copy of the input.
pub fn spd_entry(n: usize, seed: u64, i: usize, j: usize) -> f32 {
    if i == j {
        return n as f32;
    }
    let (hi, lo) = (i.max(j) as u64, i.min(j) as u64);
    let h = mix(seed ^ mix(hi << 32 | lo));
    (1.0 - 2.0 * ((h >> 11) as f64 / (1u64 << 53) as f64)) as f32
}

/// Tile `(ti, tj)` of the [`spd_entry`] matrix, row-major `bs × bs`.
pub fn spd_tile_f32(n: usize, bs: usize, seed: u64, ti: usize, tj: usize) -> Vec<f32> {
    let mut t = Vec::with_capacity(bs * bs);
    for r in 0..bs {
        for c in 0..bs {
            t.push(spd_entry(n, seed, ti * bs + r, tj * bs + c));
        }
    }
    t
}

/// Poisson arrival schedule: due offsets from the start of the run, at
/// `rate` per second, covering `seconds`.
pub fn poisson_schedule(rate: f64, seconds: f64, seed: u64) -> Vec<Duration> {
    let mut rng = Rng::new(seed);
    let mut t = 0.0;
    let mut due = Vec::with_capacity((rate * seconds) as usize + 16);
    loop {
        t += -rng.unit().ln() / rate;
        if t >= seconds {
            return due;
        }
        due.push(Duration::from_secs_f64(t));
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_same_inputs() {
        assert_eq!(tile_f64(16, 7), tile_f64(16, 7));
        assert_ne!(tile_f64(16, 7), tile_f64(16, 8));
        assert_eq!(spd_tile_f32(64, 16, 3, 2, 1), spd_tile_f32(64, 16, 3, 2, 1));
        assert_eq!(
            poisson_schedule(2000.0, 0.5, 11),
            poisson_schedule(2000.0, 0.5, 11)
        );
        assert_ne!(
            poisson_schedule(2000.0, 0.5, 11),
            poisson_schedule(2000.0, 0.5, 12)
        );
        assert_ne!(derive(1, 0), derive(1, 1));
        assert_eq!(derive(5, 9), derive(5, 9));
    }

    #[test]
    fn spd_matrix_is_symmetric_and_dominant() {
        let n = 96;
        for i in 0..n {
            let mut off = 0.0f32;
            for j in 0..n {
                assert_eq!(spd_entry(n, 42, i, j), spd_entry(n, 42, j, i));
                if i != j {
                    off += spd_entry(n, 42, i, j).abs();
                }
            }
            assert!(off < spd_entry(n, 42, i, i), "row {i} not dominant");
        }
    }

    #[test]
    fn poisson_rate_is_respected() {
        let due = poisson_schedule(2000.0, 10.0, 1);
        assert!(
            (19_000..21_000).contains(&due.len()),
            "{} arrivals",
            due.len()
        );
        assert!(due.windows(2).all(|w| w[0] <= w[1]));
    }
}

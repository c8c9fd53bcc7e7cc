//! Small shared pieces: the seeded RNG, the output digest, percentiles,
//! op counts and the run outcome every workload returns.

use std::time::Instant;

use crate::host::Kernel;

/// SplitMix64: tiny, stable across toolchains and crate versions, so a
/// seed names the same inputs forever.
#[derive(Debug, Clone)]
pub struct Rng(u64);

impl Rng {
    /// An independent stream per `(seed, stream)` pair. Both halves go
    /// through the mixer, so neighbouring streams do not share a sequence
    /// shifted by one draw.
    pub fn new(seed: u64, stream: u64) -> Rng {
        Rng(mix(seed ^ mix(stream)))
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        mix(self.0)
    }

    /// Uniform in `[0, 1)`.
    pub fn unit(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }

    pub fn below(&mut self, n: usize) -> usize {
        (self.next_u64() % n as u64) as usize
    }
}

/// Fractional parts of square roots of primes: pairwise rationally
/// independent steps for the Kronecker sequences of [`Strata`].
const ALPHAS: [f64; 12] = [
    0.414_213_562_373_095,
    0.732_050_807_568_877,
    0.236_067_977_499_790,
    0.645_751_311_064_591,
    0.316_624_790_355_400,
    0.605_551_275_463_989,
    0.123_105_625_617_661,
    0.358_898_943_540_674,
    0.795_831_523_312_719,
    0.385_164_807_134_504,
    0.567_764_362_830_022,
    0.082_762_530_298_219,
];

/// Seeded low-discrepancy draws: dimension `d` of item `i` is
/// `frac(offset_d + i * alpha_d)`, with the offsets drawn from the seed.
/// Any run of consecutive items covers each dimension's range almost
/// evenly whatever the seed, so a short run sees the same mix of inputs
/// on every seed while the inputs themselves differ.
#[derive(Debug, Clone)]
pub struct Strata([f64; ALPHAS.len()]);

impl Strata {
    pub fn new(seed: u64, stream: u64) -> Strata {
        let mut rng = Rng::new(seed, stream);
        Strata(std::array::from_fn(|_| rng.unit()))
    }

    /// In `[0, 1)`.
    pub fn unit(&self, dim: usize, i: usize) -> f64 {
        (self.0[dim] + i as f64 * ALPHAS[dim]).fract()
    }

    pub fn range(&self, dim: usize, i: usize, lo: f64, hi: f64) -> f64 {
        lo + (hi - lo) * self.unit(dim, i)
    }

    pub fn below(&self, dim: usize, i: usize, n: usize) -> usize {
        ((self.unit(dim, i) * n as f64) as usize).min(n - 1)
    }
}

/// The SplitMix64 finalizer.
fn mix(mut z: u64) -> u64 {
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// FNV-1a over the decision and simulated-statistics fields a workload
/// names explicitly. Timing and cache-provenance fields never enter it.
#[derive(Debug, Clone)]
pub struct Digest(u64);

impl Default for Digest {
    fn default() -> Self {
        Digest(0xcbf2_9ce4_8422_2325)
    }
}

impl Digest {
    pub fn bytes(&mut self, bytes: &[u8]) -> &mut Self {
        for &b in bytes {
            self.0 ^= b as u64;
            self.0 = self.0.wrapping_mul(0x0100_0000_01b3);
        }
        // Field separator, so ("ab","c") and ("a","bc") differ.
        self.0 ^= 0xff;
        self.0 = self.0.wrapping_mul(0x0100_0000_01b3);
        self
    }

    pub fn str(&mut self, s: &str) -> &mut Self {
        self.bytes(s.as_bytes())
    }

    pub fn u64(&mut self, v: u64) -> &mut Self {
        self.bytes(&v.to_le_bytes())
    }

    pub fn f64(&mut self, v: f64) -> &mut Self {
        self.u64(v.to_bits())
    }

    pub fn value(&self) -> u64 {
        self.0
    }

    pub fn hex(&self) -> String {
        format!("{:016x}", self.0)
    }
}

/// Nearest-rank percentile of an ascending slice (`p` in percent).
pub fn percentile(sorted: &[f64], p: f64) -> f64 {
    if sorted.is_empty() {
        return f64::NAN;
    }
    let rank = ((p / 100.0) * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

pub fn median(values: &[f64]) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n == 0 {
        f64::NAN
    } else if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

pub fn mean(values: &[f64]) -> f64 {
    values.iter().sum::<f64>() / values.len().max(1) as f64
}

/// Latencies of one closed-loop phase.
#[derive(Debug, Default)]
pub struct Phase {
    pub latencies_ms: Vec<f64>,
    /// Measured wall time; ops over it is the phase's `ops_per_s`.
    pub wall_s: f64,
    pub failed: u64,
    /// Index the next phase continues from.
    pub next: usize,
    /// The reference kernel timed between ops and its times; `None`
    /// where the phase times none.
    pub reference: Option<(Kernel, Vec<f64>)>,
}

impl Phase {
    pub fn ops(&self) -> usize {
        self.latencies_ms.len()
    }

    /// How fast the host ran during the phase against the host the
    /// benchmark was sized on; 1 for a phase without reference samples.
    pub fn host_speed(&self) -> f64 {
        self.reference
            .as_ref()
            .map_or(1.0, |(kernel, ms)| kernel.speed(ms))
    }
}

/// Ops a run of `seconds` makes: the seconds at `ops_per_s`, the rate of
/// the host the benchmark was sized on, in whole rounds of `round` ops
/// and at least one round. Inputs cycle through their heavy and light
/// kinds once per round, and the count does not depend on how fast the
/// host runs today, so every run of a seed measures the same inputs.
pub fn ops_for(seconds: f64, ops_per_s: f64, round: usize) -> usize {
    let rounds = (seconds * ops_per_s / round as f64).round().max(1.0);
    rounds as usize * round
}

/// One reported number.
#[derive(Debug, Clone)]
pub struct Metric {
    pub name: &'static str,
    pub value: f64,
    pub unit: &'static str,
}

/// What a workload run hands back to `main` for printing.
#[derive(Debug, Default)]
pub struct Outcome {
    pub attempted: u64,
    pub failed: u64,
    pub metrics: Vec<Metric>,
    /// Correctness failures; empty means every check passed.
    pub problems: Vec<String>,
}

impl Outcome {
    pub fn metric(&mut self, name: &'static str, value: f64, unit: &'static str) {
        self.metrics.push(Metric { name, value, unit });
    }

    pub fn check(&mut self, ok: bool, what: impl Into<String>) {
        if !ok {
            self.problems.push(what.into());
        }
    }
}

/// Peak resident set (`VmHWM`) of a process, MiB.
pub fn peak_rss_mib(pid: Option<u32>) -> Result<f64, String> {
    let path = match pid {
        Some(pid) => format!("/proc/{pid}/status"),
        None => "/proc/self/status".to_string(),
    };
    let status = std::fs::read_to_string(&path).map_err(|e| format!("read {path}: {e}"))?;
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map(|kib| kib / 1024.0)
        .ok_or_else(|| format!("no VmHWM line in {path}"))
}

/// `setup_s`: the median of `first_s`, the time from process start to
/// the end of the run's own set-up, and of `more` repeated set-ups whose
/// results are dropped. The repeats run after the measured phase, so they
/// meet the host at another moment than the first did: the host's speed
/// wanders over tens of seconds, and set-ups timed back to back would
/// all share one moment's speed.
pub fn setup_median<T>(
    first_s: f64,
    more: usize,
    mut setup: impl FnMut() -> Result<T, String>,
) -> Result<f64, String> {
    let mut times = vec![first_s];
    for _ in 0..more {
        let began = Instant::now();
        drop(setup()?);
        times.push(began.elapsed().as_secs_f64());
    }
    Ok(median(&times))
}

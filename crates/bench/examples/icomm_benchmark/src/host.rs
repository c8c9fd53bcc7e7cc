//! The host's speed. The host the benchmark was sized on (2 vCPUs of a
//! shared 2.1 GHz Xeon) runs the same work up to 40% faster or slower
//! from one minute to the next, in episodes of seconds to tens of
//! seconds, without steal time. A fixed reference kernel, timed between
//! ops, tells how fast the host ran then, and timings are reported at the
//! speed of the sized host. Nothing the program under test does changes
//! a kernel's work. See README.md for how the kernels were chosen and
//! calibrated.

use std::hint::black_box;
use std::io::{Read, Write};
use std::net::{Shutdown, TcpListener, TcpStream};
use std::thread::JoinHandle;
use std::time::Instant;

use crate::common::{median, Rng};

/// A reference kernel, with what it was calibrated against.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kernel {
    /// [`Walk`], for CPU-bound ops (onboard, plan).
    Walk,
    /// [`RoundTrip`], for requests to the server (serve-json,
    /// serve-binary).
    RoundTrip,
}

impl Kernel {
    pub fn name(self) -> &'static str {
        match self {
            Kernel::Walk => "L2 walk",
            Kernel::RoundTrip => "loopback round trips",
        }
    }

    /// How fast the host ran while the kernel took `samples_ms`, against
    /// the sized host: the kernel's median time on the sized host over
    /// its median in `samples_ms`, to the power of how much more the
    /// measured work's time moves than the kernel's. 1 without samples.
    ///
    /// Over five sets of ten runs in calm and busy hours, the log of a
    /// run's raw op rate against the log of its walk speed had a slope of
    /// 1.5–1.9 on both onboard and plan (correlation 0.83–0.97), hence
    /// 1.75. Against the round-trip speed, the request rate had a slope of
    /// 0.96 over twelve serve-binary runs and 1.64 over ten serve-json
    /// runs (correlation 0.95 on both), and serve-json's median request
    /// time, which waits on 4 ms timer ticks, moved less: 1 suits both
    /// planes.
    pub fn speed(self, samples_ms: &[f64]) -> f64 {
        let (sized_ms, elasticity) = match self {
            // The middle of twenty runs.
            Kernel::Walk => (2.2, 1.75),
            // The median of 240 samples in twelve runs.
            Kernel::RoundTrip => (19.7, 1.0),
        };
        if samples_ms.is_empty() {
            1.0
        } else {
            (sized_ms / median(samples_ms)).powf(elasticity)
        }
    }
}

/// Entries of the walk's buffer: 512 KiB, a quarter of the sized host's
/// per-core L2 cache.
const WALK_ENTRIES: usize = 128 * 1024;
/// Timed steps of the walk: about 2 ms, under 1% of a mean op.
const WALK_STEPS: usize = 300_000;

/// A walk along one random cycle through a buffer that stays in the
/// core's L2 cache. Each step waits on the load before it, so the walk's
/// time follows the cache latency the host gives the core. Over two sets
/// of ten runs on the sized host its median time correlated with the
/// runs' op rate at 0.92–0.97; walks through 4–64 MiB did at 0.71–0.93
/// and sorting or hash-map churn at 0.93–0.95, and scaling by any of
/// them left wider spreads. A chain of multiplies moved a third as much
/// as the ops.
pub struct Walk(Vec<u32>);

impl Walk {
    pub fn new() -> Walk {
        // Sattolo's shuffle: a permutation that is a single cycle, so the
        // walk visits every entry before it repeats.
        let mut next: Vec<u32> = (0..WALK_ENTRIES as u32).collect();
        let mut rng = Rng::new(0, 0x5e7e_4e4c);
        for i in (1..next.len()).rev() {
            next.swap(i, rng.below(i));
        }
        Walk(next)
    }

    fn walk(&self, steps: usize) {
        let mut at = 0u32;
        for _ in 0..steps {
            at = self.0[at as usize];
        }
        black_box(at);
    }

    /// Walks the whole cycle once to bring the buffer back into the cache
    /// after other work, then times [`WALK_STEPS`] more steps. Returns
    /// `(timed ms, ms spent in all)`.
    pub fn time_ms(&self) -> (f64, f64) {
        let began = Instant::now();
        self.walk(WALK_ENTRIES);
        let timed = Instant::now();
        self.walk(black_box(WALK_STEPS));
        let ms = |since: Instant| since.elapsed().as_secs_f64() * 1e3;
        (ms(timed), ms(began))
    }
}

/// Timed one-byte round trips of [`RoundTrip`]: about 20 ms.
const ROUND_TRIPS: usize = 1000;

/// One-byte round trips over loopback TCP to an echo thread of this
/// process: a blocking write, a wake-up and a read each way, as in a
/// request answered from a cache. On the sized host its time tracked both
/// serve planes' request rates (correlation 0.95) where the L2 walk's did
/// less (0.72–0.91 on serve-binary, 0.81 on serve-json).
pub struct RoundTrip {
    stream: TcpStream,
    echo: Option<JoinHandle<()>>,
}

impl RoundTrip {
    pub fn new() -> Result<RoundTrip, String> {
        let listener =
            TcpListener::bind("127.0.0.1:0").map_err(|e| format!("echo listener: {e}"))?;
        let addr = listener.local_addr().map_err(|e| e.to_string())?;
        let echo = std::thread::spawn(move || {
            let Ok((mut stream, _)) = listener.accept() else {
                return;
            };
            let _ = stream.set_nodelay(true);
            let mut byte = [0u8; 1];
            while stream.read_exact(&mut byte).is_ok() && stream.write_all(&byte).is_ok() {}
        });
        let stream = TcpStream::connect(addr).map_err(|e| format!("echo connect: {e}"))?;
        let _ = stream.set_nodelay(true);
        Ok(RoundTrip {
            stream,
            echo: Some(echo),
        })
    }

    fn trips(&mut self, n: usize) -> Result<(), String> {
        let mut byte = [0u8; 1];
        for _ in 0..n {
            self.stream
                .write_all(&byte)
                .and_then(|()| self.stream.read_exact(&mut byte))
                .map_err(|e| format!("echo round trip: {e}"))?;
        }
        Ok(())
    }

    /// A tenth of [`ROUND_TRIPS`] untimed to wake both threads, then the
    /// timed round trips, in ms.
    pub fn time_ms(&mut self) -> Result<f64, String> {
        self.trips(ROUND_TRIPS / 10)?;
        let began = Instant::now();
        self.trips(ROUND_TRIPS)?;
        Ok(began.elapsed().as_secs_f64() * 1e3)
    }
}

impl Drop for RoundTrip {
    fn drop(&mut self) {
        // The echo thread reads end of file and returns.
        let _ = self.stream.shutdown(Shutdown::Both);
        if let Some(echo) = self.echo.take() {
            let _ = echo.join();
        }
    }
}

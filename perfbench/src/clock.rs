//! Wall-clock laps with the process's CPU time and the machine's stolen
//! CPU time over the same interval.
//!
//! On a shared virtual machine the hypervisor runs other tenants on this
//! machine's cores; the guest kernel counts that time as `steal` in
//! `/proc/stat` (summed over cores; 0 on bare metal). A stolen second
//! delays a round by at most one second (a fork–join barrier makes the
//! other cores wait for the stolen one), and a round can never take less
//! than its CPU time spread over every core. A lap's *unstolen* time,
//! `max(wall − steal, cpu / cores)`, is therefore the tightest estimate
//! of the wall time the round would have taken on an unshared machine,
//! and equals the wall time when nothing is stolen.

use std::time::Instant;

/// A running lap.
pub struct Stopwatch {
    wall: Instant,
    cpu: f64,
    steal: f64,
}

/// A finished lap, in seconds.
#[derive(Debug, Clone, Copy, Default)]
pub struct Lap {
    /// Wall time.
    pub wall: f64,
    /// User + system CPU time of this process.
    pub cpu: f64,
    /// CPU time stolen from the machine by the hypervisor.
    pub steal: f64,
    /// Cores the machine offers.
    pub cores: usize,
}

impl Lap {
    /// Wall time with the stolen time taken out (see the module docs).
    pub fn unstolen(&self) -> f64 {
        (self.wall - self.steal)
            .max(self.cpu / self.cores.max(1) as f64)
            .min(self.wall)
    }
}

impl Stopwatch {
    /// Starts a lap now.
    pub fn start() -> Self {
        Self {
            wall: Instant::now(),
            cpu: cpu_secs(),
            steal: steal_secs(),
        }
    }

    /// The lap so far.
    pub fn lap(&self) -> Lap {
        Lap {
            wall: self.wall.elapsed().as_secs_f64(),
            cpu: (cpu_secs() - self.cpu).max(0.0),
            steal: (steal_secs() - self.steal).max(0.0),
            cores: std::thread::available_parallelism().map_or(1, |n| n.get()),
        }
    }
}

/// Kernel clock ticks per second (`USER_HZ`, 100 on Linux).
const TICKS: f64 = 100.0;

/// User + system CPU time of this process (all threads, live and joined).
fn cpu_secs() -> f64 {
    let stat = std::fs::read_to_string("/proc/self/stat").unwrap_or_default();
    // Fields after the parenthesised command name; utime and stime are the
    // 14th and 15th fields of the line, the 12th and 13th after it.
    let rest = stat.rsplit_once(')').map_or("", |(_, rest)| rest);
    let field = |i: usize| {
        rest.split_whitespace()
            .nth(i)
            .and_then(|v| v.parse::<f64>().ok())
            .unwrap_or(0.0)
    };
    (field(11) + field(12)) / TICKS
}

/// CPU time stolen from this machine so far, summed over its cores (the
/// `steal` column of the first line of `/proc/stat`; 0 on bare metal).
fn steal_secs() -> f64 {
    let stat = std::fs::read_to_string("/proc/stat").unwrap_or_default();
    let first = stat.lines().next().unwrap_or_default();
    first
        .split_whitespace()
        .nth(8)
        .and_then(|v| v.parse::<f64>().ok())
        .unwrap_or(0.0)
        / TICKS
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn unstolen_time_removes_stolen_time() {
        let lap = |wall, cpu, steal| Lap {
            wall,
            cpu,
            steal,
            cores: 2,
        };
        // Nothing stolen: the wall time.
        assert_eq!(lap(3.0, 5.0, 0.0).unstolen(), 3.0);
        // A fork-join round that lost 4 s to steal.
        assert!((lap(6.0, 3.6, 4.0).unstolen() - 2.0).abs() < 1e-12);
        // Two independent busy cores: never below cpu / cores.
        assert!((lap(10.0, 18.0, 2.0).unstolen() - 9.0).abs() < 1e-12);
    }

    #[test]
    fn laps_see_cpu_time() {
        let watch = Stopwatch::start();
        let mut x = 0u64;
        while watch.lap().wall < 0.05 {
            x = std::hint::black_box(x.wrapping_mul(6364136223846793005).wrapping_add(1));
        }
        let lap = watch.lap();
        assert!(lap.wall >= 0.05 && lap.cpu >= 0.0 && lap.steal >= 0.0);
    }
}

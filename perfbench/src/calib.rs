//! CPU placement and the machine calibration recorded beside every run.
//!
//! The calibration is recorded only: it lets a reader tell host drift (a
//! slower core, a slower cross-CPU wakeup) apart from a change in the
//! program. It is never an end-to-end metric and never divides one.

use std::hint::black_box;
use std::io;
use std::sync::mpsc;
use std::time::Instant;

/// Linux `cpu_set_t`: a 1024-bit mask.
#[repr(C)]
struct CpuSet([u64; 16]);

extern "C" {
    fn sched_getaffinity(pid: i32, cpusetsize: usize, mask: *mut CpuSet) -> i32;
    fn sched_setaffinity(pid: i32, cpusetsize: usize, mask: *const CpuSet) -> i32;
}

/// CPUs the calling thread may run on.
pub fn allowed_cpus() -> io::Result<Vec<usize>> {
    let mut set = CpuSet([0; 16]);
    // SAFETY: `set` is a live, writable buffer of exactly the size passed;
    // pid 0 names the calling thread.
    let rc = unsafe { sched_getaffinity(0, std::mem::size_of::<CpuSet>(), &mut set) };
    if rc != 0 {
        return Err(io::Error::last_os_error());
    }
    Ok((0..1024)
        .filter(|&cpu| set.0[cpu / 64] & (1u64 << (cpu % 64)) != 0)
        .collect())
}

/// Restrict the calling thread to `cpus`. Threads it spawns afterwards
/// inherit the mask.
pub fn set_affinity(cpus: &[usize]) -> io::Result<()> {
    let mut set = CpuSet([0; 16]);
    for &cpu in cpus {
        if cpu >= 1024 {
            return Err(io::Error::new(
                io::ErrorKind::InvalidInput,
                "cpu index out of range",
            ));
        }
        set.0[cpu / 64] |= 1u64 << (cpu % 64);
    }
    // SAFETY: `set` is a live buffer of exactly the size passed; pid 0
    // names the calling thread.
    let rc = unsafe { sched_setaffinity(0, std::mem::size_of::<CpuSet>(), &set) };
    if rc != 0 {
        return Err(io::Error::last_os_error());
    }
    Ok(())
}

/// Where a workload's threads run.
#[derive(Debug, Clone, PartialEq)]
pub enum Placement {
    /// The whole process pinned to one CPU before any program thread
    /// started.
    Pinned { cpu: usize, allowed: Vec<usize> },
    /// Left on every CPU the process was given.
    Unpinned { allowed: Vec<usize> },
}

impl Placement {
    /// Pin the calling (main) thread to the last allowed CPU, away from
    /// CPU 0 where device interrupts usually land. Call before any other
    /// thread starts so that every thread inherits the mask.
    pub fn pin_process() -> io::Result<Placement> {
        let allowed = allowed_cpus()?;
        let cpu = *allowed
            .last()
            .ok_or_else(|| io::Error::other("no CPU allowed"))?;
        set_affinity(&[cpu])?;
        Ok(Placement::Pinned { cpu, allowed })
    }

    pub fn unpinned() -> io::Result<Placement> {
        Ok(Placement::Unpinned {
            allowed: allowed_cpus()?,
        })
    }

    pub fn describe(&self) -> String {
        match self {
            Placement::Pinned { cpu, allowed } => {
                format!("pinned to cpu {cpu} (allowed {allowed:?})")
            }
            Placement::Unpinned { allowed } => format!("unpinned (allowed {allowed:?})"),
        }
    }
}

/// Host measurements taken at the start of a run.
#[derive(Debug, Clone, PartialEq)]
pub struct Calibration {
    /// Fixed-work single-thread integer loop, million steps per second
    /// (median of 5).
    pub compute_msteps_per_s: f64,
    /// Two-thread channel ping-pong round trip with both threads pinned to
    /// one CPU, µs (median of 10 batches).
    pub handoff_pinned_us: f64,
    /// The same round trip with both threads free to run on any allowed
    /// CPU, µs.
    pub handoff_unpinned_us: f64,
}

const COMPUTE_STEPS: u64 = 4_000_000;
const HANDOFF_BATCH: usize = 200;
const HANDOFF_BATCHES: usize = 10;

fn compute_rate() -> f64 {
    let mut rates = Vec::new();
    for _ in 0..5 {
        let started = Instant::now();
        let mut x = black_box(0x9e37_79b9_7f4a_7c15u64);
        let mut acc = 0u64;
        for _ in 0..COMPUTE_STEPS {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            acc = acc.wrapping_add(x.wrapping_mul(0x2545_f491_4f6c_dd1d));
        }
        black_box(acc);
        rates.push(COMPUTE_STEPS as f64 / started.elapsed().as_secs_f64() / 1e6);
    }
    crate::stats::median(&rates).expect("five samples")
}

/// Median per-round-trip time of a channel ping-pong between the calling
/// thread's child and a partner thread, each restricted to `cpus` when
/// given.
fn handoff_us(cpus: Option<&[usize]>) -> io::Result<f64> {
    let (ping_tx, ping_rx) = mpsc::channel::<u64>();
    let (pong_tx, pong_rx) = mpsc::channel::<u64>();
    std::thread::scope(|scope| {
        let partner = scope.spawn(move || -> io::Result<()> {
            if let Some(cpus) = cpus {
                set_affinity(cpus)?;
            }
            while let Ok(v) = ping_rx.recv() {
                if pong_tx.send(v + 1).is_err() {
                    break;
                }
            }
            Ok(())
        });
        let pinger = scope.spawn(move || -> io::Result<f64> {
            if let Some(cpus) = cpus {
                set_affinity(cpus)?;
            }
            let round = |n: usize| -> io::Result<f64> {
                let started = Instant::now();
                for i in 0..n as u64 {
                    ping_tx
                        .send(i)
                        .map_err(|_| io::Error::other("partner gone"))?;
                    pong_rx
                        .recv()
                        .map_err(|_| io::Error::other("partner gone"))?;
                }
                Ok(started.elapsed().as_secs_f64() * 1e6 / n as f64)
            };
            round(HANDOFF_BATCH)?; // warm-up
            let mut batches = Vec::with_capacity(HANDOFF_BATCHES);
            for _ in 0..HANDOFF_BATCHES {
                batches.push(round(HANDOFF_BATCH)?);
            }
            Ok(crate::stats::median(&batches).expect("ten batches"))
        });
        let rtt = pinger.join().expect("handoff pinger panicked");
        partner.join().expect("handoff partner panicked")?;
        rtt
    })
}

impl Calibration {
    /// Measure the host. Call before the process is pinned, so that the
    /// unpinned round trip really is unpinned.
    pub fn measure(pin_cpu: usize) -> io::Result<Calibration> {
        Ok(Calibration {
            compute_msteps_per_s: compute_rate(),
            handoff_pinned_us: handoff_us(Some(&[pin_cpu]))?,
            handoff_unpinned_us: handoff_us(None)?,
        })
    }
}

//! Which CPU the benchmark runs on. On a shared virtual machine each
//! virtual CPU's speed drops by up to half, independently of the other's,
//! for seconds to minutes at a time, and a thread that moves between CPUs
//! loses its core's caches. The benchmark therefore runs on one CPU at a
//! time, and before each pass moves to the CPU that runs a fixed probe
//! fastest.

use std::hint::black_box;
use std::time::Instant;

extern "C" {
    fn sched_getaffinity(pid: i32, cpusetsize: usize, mask: *mut u64) -> i32;
    fn sched_setaffinity(pid: i32, cpusetsize: usize, mask: *const u64) -> i32;
}

/// Words in a `cpu_set_t`: one bit per CPU, 1024 CPUs.
const CPU_SET_WORDS: usize = 16;

/// The CPUs the calling thread may run on, in increasing order.
///
/// # Errors
///
/// The system call's error.
pub fn allowed() -> Result<Vec<usize>, String> {
    let mut set = [0u64; CPU_SET_WORDS];
    // SAFETY: `set` is a writable buffer of exactly the size passed, laid
    // out as glibc's `cpu_set_t`; pid 0 names the calling thread.
    if unsafe { sched_getaffinity(0, std::mem::size_of_val(&set), set.as_mut_ptr()) } != 0 {
        return Err(format!(
            "sched_getaffinity: {}",
            std::io::Error::last_os_error()
        ));
    }
    let cpus: Vec<usize> = (0..64 * CPU_SET_WORDS)
        .filter(|&c| set[c / 64] >> (c % 64) & 1 == 1)
        .collect();
    if cpus.is_empty() {
        return Err("sched_getaffinity allows no CPU".into());
    }
    Ok(cpus)
}

/// Pins the calling thread, and so every thread it starts later, to `cpu`.
///
/// # Errors
///
/// `cpu` is out of range, or the system call's error.
pub fn pin(cpu: usize) -> Result<(), String> {
    if cpu >= 64 * CPU_SET_WORDS {
        return Err(format!("CPU {cpu} is out of range"));
    }
    let mut one = [0u64; CPU_SET_WORDS];
    one[cpu / 64] = 1 << (cpu % 64);
    // SAFETY: `one` is a readable buffer of exactly the size passed, laid
    // out as glibc's `cpu_set_t`; pid 0 names the calling thread.
    if unsafe { sched_setaffinity(0, std::mem::size_of_val(&one), one.as_ptr()) } != 0 {
        return Err(format!(
            "sched_setaffinity: {}",
            std::io::Error::last_os_error()
        ));
    }
    Ok(())
}

/// A CPU the probe ran on, and how long it took there.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Probed {
    /// The CPU.
    pub cpu: usize,
    /// The probe's time on it, in milliseconds.
    pub probe_ms: f64,
}

/// Runs the probe on each of `cpus` and leaves the calling thread pinned
/// to the one that ran it fastest, which it returns.
///
/// # Errors
///
/// `cpus` is empty, or pinning failed.
pub fn move_to_fastest(cpus: &[usize]) -> Result<Probed, String> {
    let mut best: Option<Probed> = None;
    for &cpu in cpus {
        pin(cpu)?;
        let probe_ms = probe_ms().min(probe_ms());
        if best.is_none_or(|b| probe_ms < b.probe_ms) {
            best = Some(Probed { cpu, probe_ms });
        }
    }
    let best = best.ok_or("no CPU to choose from")?;
    pin(best.cpu)?;
    Ok(best)
}

/// Elements the probe sorts: under a millisecond's work.
const PROBE_LEN: usize = 40_000;

/// The probe's time on the reference CPU, in milliseconds: about its 5th
/// percentile in a run on the 2-vCPU Xeon virtual machine the baseline
/// was recorded on, so scaled timings read close to that machine's
/// milliseconds.
pub const REFERENCE_PROBE_MS: f64 = 0.65;

/// Milliseconds to sort a fixed pseudo-random array. Sorting branches
/// unpredictably and walks memory much as the interpreter does, so it
/// slows when the host slows the interpreter; a plain arithmetic loop
/// barely does.
pub fn probe_ms() -> f64 {
    let mut x = 0x9e37_79b9_7f4a_7c15_u64;
    let mut v: Vec<u64> = (0..PROBE_LEN)
        .map(|_| {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            x
        })
        .collect();
    let t = Instant::now();
    v.sort_unstable();
    black_box(&v);
    t.elapsed().as_secs_f64() * 1e3
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn a_pinned_thread_and_its_children_run_on_one_cpu() {
        // On a thread of its own: pinning must not leak into other tests.
        let pinned = std::thread::spawn(|| {
            let cpus = allowed().expect("sched_getaffinity succeeds");
            let probed = move_to_fastest(&cpus).expect("pinning succeeds");
            assert!(probed.probe_ms > 0.0);
            let child = std::thread::spawn(allowed).join();
            (cpus, probed.cpu, child.expect("the child finishes"))
        });
        let (cpus, cpu, child) = pinned.join().expect("the pinned thread finishes");
        assert!(cpus.contains(&cpu));
        assert_eq!(child, Ok(vec![cpu]));
        assert!(pin(64 * CPU_SET_WORDS).is_err());
        assert!(move_to_fastest(&[]).is_err());
    }
}

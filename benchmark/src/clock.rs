//! CPU-time clocks: what every gated rate and cost is measured on.
//!
//! The reference host is a guest whose CPUs the hypervisor hands to other
//! guests — half a percent of the time on a good minute, a third of it
//! for minutes on end on a bad one — in slices from 30 us to tens of
//! milliseconds that leave no clean stretch longer than about 50 ms.
//! Nothing timed on the wall survives that: a service job's latency
//! doubles. Linux keeps the stolen time out of a thread's CPU time
//! (`CONFIG_PARAVIRT_TIME_ACCOUNTING`), so CPU time is what the program
//! itself spent — the quantity a change to the program can move. For a
//! thread that only computes it is wall time on a host nobody shares;
//! for a service it is the cost of a job and leaves the waiting out
//! (the wall-clock latencies are per-layer metrics, reported and not
//! gated).

use std::time::Instant;

const CLOCK_THREAD_CPUTIME_ID: i32 = 3;

#[cfg(target_os = "linux")]
fn cpu_ns(clock: i32) -> Option<u64> {
    #[repr(C)]
    struct Timespec {
        sec: i64,
        nsec: i64,
    }
    extern "C" {
        fn clock_gettime(clock: i32, time: *mut Timespec) -> i32;
    }
    let mut t = Timespec { sec: 0, nsec: 0 };
    // SAFETY: `clock_gettime` writes one `timespec` (two 64-bit fields on
    // the 64-bit Linux targets this builds for) through a valid pointer.
    let ok = unsafe { clock_gettime(clock, &mut t) } == 0;
    ok.then(|| t.sec as u64 * 1_000_000_000 + t.nsec as u64)
}

#[cfg(not(target_os = "linux"))]
fn cpu_ns(_clock: i32) -> Option<u64> {
    None
}

fn thread_cpu_ns() -> Option<u64> {
    cpu_ns(CLOCK_THREAD_CPUTIME_ID)
}

/// The clock of one thread of this process, by its kernel thread id:
/// what `pthread_getcpuclockid` computes. Unlike the process clock, it is
/// exact for a thread that is running on another CPU right now (the
/// process clock only knows such a thread's time up to its last tick).
fn clock_of_thread(tid: i32) -> i32 {
    const CPUCLOCK_SCHED: i32 = 2;
    const CPUCLOCK_PERTHREAD_MASK: i32 = 4;
    (!tid << 3) | CPUCLOCK_SCHED | CPUCLOCK_PERTHREAD_MASK
}

fn thread_ids() -> Vec<i32> {
    let Ok(tasks) = std::fs::read_dir("/proc/self/task") else {
        return Vec::new();
    };
    tasks
        .filter_map(|entry| entry.ok()?.file_name().to_str()?.parse().ok())
        .collect()
}

fn own_thread_id() -> Option<i32> {
    let link = std::fs::read_link("/proc/thread-self").ok()?;
    link.file_name()?.to_str()?.parse().ok()
}

/// CPU time of the program's threads: those the process has when the
/// clock is made, but for the calling thread where that one is a load
/// generator that spins.
#[derive(Debug, Clone)]
pub struct ProgramCpu {
    clocks: Vec<i32>,
    wall: Instant,
}

impl ProgramCpu {
    pub fn of_process() -> ProgramCpu {
        ProgramCpu {
            clocks: thread_ids().into_iter().map(clock_of_thread).collect(),
            wall: Instant::now(),
        }
    }

    pub fn without_calling_thread() -> ProgramCpu {
        let own = own_thread_id();
        let others = thread_ids().into_iter().filter(|&tid| Some(tid) != own);
        ProgramCpu {
            clocks: others.map(clock_of_thread).collect(),
            wall: Instant::now(),
        }
    }

    /// A reading; only differences of two mean anything. A thread that
    /// has ended reads as nothing. On the wall where the system has no
    /// such clocks.
    pub fn now_ns(&self) -> u64 {
        if self.clocks.is_empty() {
            return self.wall.elapsed().as_nanos() as u64;
        }
        self.clocks.iter().filter_map(|&clock| cpu_ns(clock)).sum()
    }
}

/// A stopwatch on the calling thread's CPU time; on the wall where the
/// system has no such clock.
#[derive(Debug, Clone, Copy)]
pub struct ThreadCpu {
    cpu_ns: Option<u64>,
    wall: Instant,
}

impl ThreadCpu {
    pub fn start() -> ThreadCpu {
        ThreadCpu {
            cpu_ns: thread_cpu_ns(),
            wall: Instant::now(),
        }
    }

    pub fn elapsed_ns(&self) -> u64 {
        match (self.cpu_ns, thread_cpu_ns()) {
            (Some(start), Some(now)) => now - start,
            _ => self.wall.elapsed().as_nanos() as u64,
        }
    }

    pub fn elapsed_s(&self) -> f64 {
        self.elapsed_ns() as f64 / 1e9
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::Duration;

    /// Spins until the calling thread has used `ms` of CPU, however long
    /// the other tests' threads make that take.
    fn burn(ms: u64) {
        let clock = ThreadCpu::start();
        while clock.elapsed_ns() < ms * 1_000_000 {
            std::hint::spin_loop();
        }
    }

    #[test]
    fn sleeping_costs_no_cpu_time_and_cpu_time_never_outruns_the_wall() {
        let (clock, wall) = (ThreadCpu::start(), Instant::now());
        std::thread::sleep(Duration::from_millis(30));
        let slept_ns = clock.elapsed_ns();
        if cfg!(target_os = "linux") {
            assert!(slept_ns < 5_000_000, "{slept_ns}");
        }
        burn(20);
        let (cpu_ns, wall_ns) = (clock.elapsed_ns(), wall.elapsed().as_nanos() as u64);
        assert!(
            cpu_ns >= 20_000_000 && cpu_ns <= wall_ns,
            "{cpu_ns} {wall_ns}"
        );
        if cfg!(target_os = "linux") {
            assert!(wall_ns >= 50_000_000, "{wall_ns}");
        }
    }

    #[test]
    fn program_cpu_counts_other_threads_and_can_leave_the_caller_out() {
        // The helper must be there when the clocks are made, and until
        // they were read.
        let (go, wait) = std::sync::mpsc::channel::<()>();
        let (done, finished) = std::sync::mpsc::channel::<()>();
        let helper = std::thread::spawn(move || {
            wait.recv().expect("told to go");
            burn(20);
            done.send(()).expect("main waits");
            wait.recv().ok();
        });
        let (all, others) = (
            ProgramCpu::of_process(),
            ProgramCpu::without_calling_thread(),
        );
        let (all0, others0) = (all.now_ns(), others.now_ns());
        go.send(()).expect("helper waits");
        burn(40);
        finished.recv().expect("helper burnt its share");
        let (all_ns, others_ns) = (all.now_ns() - all0, others.now_ns() - others0);
        drop(go);
        helper.join().expect("ends");
        if cfg!(target_os = "linux") {
            // Other tests' threads share the process: floors only.
            assert!(others_ns >= 20_000_000, "{others_ns}");
            assert!(all_ns >= others_ns + 40_000_000, "{all_ns} {others_ns}");
        }
    }
}

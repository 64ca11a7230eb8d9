//! What every workload shares: the run-length rule, the step gate that
//! keeps writer ranks in step, the per-step timing records and the
//! coupling outcome they are reduced from.

use std::cell::Cell;
use std::time::{Duration, Instant};

use flexio::link::LinkState;
use flexio::StreamHints;

use crate::sysinfo::json_str;
use crate::trace::ThreadSpans;

/// How long a coupling runs.
#[derive(Debug, Clone, Copy)]
pub enum Stop {
    /// Exactly this many steps (set-up rounds, smoke mode).
    Steps(u64),
    /// Steps keep being started until this much time has passed since the
    /// first one began.
    For(Duration),
}

/// Decides, step by step, whether the writers begin another step. The
/// writer coordinator (rank 0) decides; other writer ranks follow its
/// decision, so every rank writes the same steps.
pub struct StepGate {
    stop: Stop,
    started: Cell<Option<Instant>>,
    decided: Cell<u64>,
    last: Cell<Option<u64>>,
}

impl StepGate {
    /// A gate applying `stop`.
    pub fn new(stop: Stop) -> StepGate {
        StepGate { stop, started: Cell::new(None), decided: Cell::new(0), last: Cell::new(None) }
    }

    /// Rank 0: whether step index `i` runs. Steps must be asked in order.
    pub fn decide(&self, i: u64) -> bool {
        if let Some(n) = self.last.get() {
            return i < n;
        }
        let started = self.started.get().unwrap_or_else(Instant::now);
        self.started.set(Some(started));
        let go = match self.stop {
            Stop::Steps(n) => i < n,
            Stop::For(d) => started.elapsed() < d,
        };
        if go {
            self.decided.set(i + 1);
        } else {
            self.last.set(Some(i));
        }
        go
    }

    /// Rank 0: no step from index `i` on runs (an error ended the run).
    pub fn stop_at(&self, i: u64) {
        if self.last.get().is_none() {
            self.last.set(Some(i));
        }
    }

    /// Steps rank 0 let run.
    pub fn begun(&self) -> u64 {
        self.decided.get()
    }

    /// Other writer ranks on the same reactor thread: wait for rank 0's
    /// decision on step `i` and return it.
    pub async fn follow(&self, i: u64) -> bool {
        loop {
            if self.decided.get() > i {
                return true;
            }
            if let Some(n) = self.last.get() {
                return i < n;
            }
            flexio_reactor::yield_now().await;
        }
    }
}

/// Timing of one writer rank's step, as the simulation sees it.
#[derive(Debug, Clone, Copy)]
pub struct WriterSample {
    /// Step number.
    pub step: u64,
    /// Just before `begin_step`.
    pub begin: Instant,
    /// Just before `end_step`.
    pub end_enter: Instant,
    /// `end_step` returned.
    pub end_exit: Instant,
}

/// One reader rank finishing its analytics for a step.
#[derive(Debug, Clone, Copy)]
pub struct ReaderSample {
    /// Step number.
    pub step: u64,
    /// Analytics for the step done on this rank.
    pub finish: Instant,
}

/// Protocol counters of a link, read after both sides closed.
#[derive(Debug, Clone, Copy, Default)]
pub struct Counters {
    /// Gather + exchange + broadcast messages (handshake steps 1–3).
    pub handshake: u64,
    /// Step headers, acks and plug-in deployment messages.
    pub control: u64,
    /// Data chunk/batch messages.
    pub data: u64,
    /// Receive retries after a timeout.
    pub retries: u64,
    /// Steps completed with a reader evicted or skipped.
    pub degraded: u64,
    /// Monitor `DataSend` bytes.
    pub wire_bytes: u64,
    /// Monitor `PluginExec` nanoseconds.
    pub plugin_ns: u64,
}

impl Counters {
    /// Read a link's counters and monitor totals.
    pub fn of(link: &LinkState) -> Counters {
        use std::sync::atomic::Ordering::Relaxed;
        let c = &link.counters;
        let (gather, exchange, bcast, data, step, ack, plugin) = c.snapshot();
        Counters {
            handshake: gather + exchange + bcast,
            control: step + ack + plugin,
            data,
            retries: c.retries.load(Relaxed),
            degraded: c.degraded_steps.load(Relaxed),
            wire_bytes: link.monitor.total_bytes(flexio::MonitorEvent::DataSend),
            plugin_ns: link.monitor.total_nanos(flexio::MonitorEvent::PluginExec),
        }
    }
}

/// Everything one coupled run produced, apart from the workload's own
/// analytics output (which its correctness check consumes).
#[derive(Default)]
pub struct Coupling {
    /// `FlexIo` creation until every rank opened and subscribed.
    pub setup_s: f64,
    /// Duration of each rank's `open_*` call, ms.
    pub open_ms: Vec<f64>,
    /// Steps the writers began.
    pub steps_begun: u64,
    /// Reader rank count.
    pub nreaders: usize,
    /// Per writer rank-step timing.
    pub writer: Vec<WriterSample>,
    /// Per reader rank-step completion.
    pub reader: Vec<ReaderSample>,
    /// Errors raised by any rank.
    pub errors: Vec<String>,
    /// Link counters after close.
    pub counters: Counters,
    /// Payload bytes the analytics actually consumed.
    pub needed_bytes: u64,
    /// Elements offered to the data-conditioning plug-in.
    pub elems_in: u64,
    /// Elements that survived it.
    pub elems_kept: u64,
    /// Simulation-side thread CPU time ÷ wall time.
    pub writer_cpu: f64,
    /// Analytics-side thread CPU time ÷ wall time.
    pub reader_cpu: f64,
    /// Recorded spans, one entry per thread.
    pub threads: Vec<ThreadSpans>,
}

/// Timing reduced from a coupling's samples.
pub struct Timing {
    /// Steps every reader rank finished.
    pub completed: u64,
    /// First `begin_step` to the last completed step's analytics, s.
    pub elapsed_s: f64,
    /// Per writer rank-step `begin_step` → `end_step` return, ms.
    pub write_ms: Vec<f64>,
    /// Per step: first writer entering `end_step` → last reader done, ms.
    pub latency_ms: Vec<f64>,
}

impl Coupling {
    /// Reduce the raw samples to the end-to-end timing figures.
    pub fn timing(&self) -> Timing {
        let steps = self.steps_begun as usize;
        let mut first_enter: Vec<Option<Instant>> = vec![None; steps];
        let mut last_finish: Vec<Option<Instant>> = vec![None; steps];
        let mut finishes = vec![0usize; steps];
        let mut start: Option<Instant> = None;
        for w in &self.writer {
            let slot = &mut first_enter[w.step as usize];
            *slot = Some(slot.map_or(w.end_enter, |t| t.min(w.end_enter)));
            start = Some(start.map_or(w.begin, |t| t.min(w.begin)));
        }
        for r in &self.reader {
            let i = r.step as usize;
            finishes[i] += 1;
            last_finish[i] = Some(last_finish[i].map_or(r.finish, |t| t.max(r.finish)));
        }
        let mut latency_ms = Vec::with_capacity(steps);
        let mut completed = 0;
        let mut end = start;
        for i in 0..steps {
            if finishes[i] < self.nreaders {
                continue;
            }
            if let (Some(a), Some(b)) = (first_enter[i], last_finish[i]) {
                completed += 1;
                latency_ms.push(b.saturating_duration_since(a).as_secs_f64() * 1e3);
                end = end.map(|e| e.max(b));
            }
        }
        let elapsed_s = match (start, end) {
            (Some(a), Some(b)) => b.saturating_duration_since(a).as_secs_f64(),
            _ => 0.0,
        };
        let write_ms = self
            .writer
            .iter()
            .map(|w| w.end_exit.saturating_duration_since(w.begin).as_secs_f64() * 1e3)
            .collect();
        Timing { completed, elapsed_s, write_ms, latency_ms }
    }
}

/// The explicit hints of a workload, as JSON object members.
pub fn describe_hints(h: &StreamHints) -> String {
    format!(
        "\"runtime\":{},\"transport\":{},\"caching\":{},\"batching\":{},\"write_mode\":{},\
         \"queue_entries\":{},\"inline_capacity\":{},\"recv_timeout_ms\":{},\"retries\":{},\
         \"transactional\":{},\"packed_marshal\":{}",
        json_str(&format!("{:?}", h.runtime)),
        json_str(&format!("{:?}", h.transport)),
        json_str(&format!("{:?}", h.caching)),
        h.batching,
        json_str(&format!("{:?}", h.write_mode)),
        h.queue_entries,
        h.inline_capacity,
        h.recv_timeout.as_millis(),
        h.retries,
        h.transactional,
        h.packed_marshal
    )
}

/// Order-independent digest building block (SplitMix64 finalizer over a
/// key/value pair). Digests are wrapping sums of `mix` terms, so chunks
/// may be folded in any order.
pub fn mix(key: u64, value: u64) -> u64 {
    let mut z = key.wrapping_mul(0x9E37_79B9_7F4A_7C15) ^ value;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Order-dependent digest of a sequence of f64 values (bit patterns).
pub fn digest_f64s(seed: u64, values: &[f64]) -> u64 {
    values.iter().fold(seed, |h, v| mix(h, v.to_bits()))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn gate_runs_exact_step_counts_for_every_rank() {
        let gate = StepGate::new(Stop::Steps(3));
        assert!(gate.decide(0) && gate.decide(1) && gate.decide(2));
        assert!(!gate.decide(3));
        assert!(!gate.decide(4));
        let follow = |i| flexio_reactor::block_on(gate.follow(i));
        assert!(follow(0) && follow(2));
        assert!(!follow(3));
    }

    #[test]
    fn timing_counts_only_steps_every_reader_finished() {
        let t0 = Instant::now();
        let at = |ms: u64| t0 + Duration::from_millis(ms);
        let c = Coupling {
            steps_begun: 2,
            nreaders: 2,
            writer: vec![
                WriterSample { step: 0, begin: at(0), end_enter: at(2), end_exit: at(3) },
                WriterSample { step: 0, begin: at(0), end_enter: at(1), end_exit: at(4) },
                WriterSample { step: 1, begin: at(5), end_enter: at(6), end_exit: at(7) },
            ],
            reader: vec![
                ReaderSample { step: 0, finish: at(8) },
                ReaderSample { step: 0, finish: at(9) },
                ReaderSample { step: 1, finish: at(10) },
            ],
            ..Coupling::default()
        };
        let t = c.timing();
        assert_eq!(t.completed, 1, "step 1 reached only one of two readers");
        assert_eq!(t.latency_ms.len(), 1);
        assert!(
            (t.latency_ms[0] - 8.0).abs() < 1e-9,
            "first end_step entry 1 ms → last finish 9 ms"
        );
        assert!((t.elapsed_s - 0.009).abs() < 1e-9);
        assert_eq!(t.write_ms.len(), 3);
        assert!((t.write_ms[1] - 4.0).abs() < 1e-9);
    }

    #[test]
    fn digests_are_order_independent_when_summed() {
        let a = mix(1, 10).wrapping_add(mix(2, 20));
        let b = mix(2, 20).wrapping_add(mix(1, 10));
        assert_eq!(a, b);
        assert_ne!(mix(1, 10), mix(10, 1));
    }
}

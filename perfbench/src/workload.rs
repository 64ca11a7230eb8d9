//! The interface each workload implements, and the pieces they share.

use flexio::StreamHints;

use crate::harness::{Coupling, Stop};
use crate::probes::ProbeInput;
use crate::ranks::ReaderRank;

/// Outcome of a correctness check against the serial reference.
#[derive(Debug, Default)]
pub struct Verdict {
    /// Steps that went undelivered or whose output differs.
    pub failed_steps: u64,
    /// What differed, for the log.
    pub notes: Vec<String>,
}

impl Verdict {
    /// Record one failed step.
    pub fn fail(&mut self, note: String) {
        self.failed_steps += 1;
        if self.notes.len() < 8 {
            self.notes.push(note);
        }
    }
}

/// One benchmark workload: a coupled pipeline plus its serial reference.
pub trait Workload {
    /// Reader rank type; its accumulated output is what gets checked.
    type Reader: ReaderRank;
    /// Serial reference output.
    type Reference;

    /// Workload name (as on the command line).
    fn name(&self) -> &'static str;
    /// The explicit stream hints.
    fn hints(&self) -> StreamHints;
    /// Sizing and layout, as JSON object members.
    fn describe(&self) -> String;
    /// Build fresh rank inputs (not timed as set-up), then run one
    /// coupling under `stop`.
    fn couple(&self, stop: Stop, trace: bool) -> (Coupling, Vec<Self::Reader>);
    /// The same pipeline for `steps` steps in one thread, no middleware.
    fn reference(&self, steps: u64) -> Self::Reference;
    /// Compare what the coupling's readers produced over `steps` steps
    /// with the reference.
    fn check(&self, readers: &[Self::Reader], reference: &Self::Reference, steps: u64) -> Verdict;
    /// One step's worth of writer output and reader subscriptions, for
    /// the standalone layer probes.
    fn probe_input(&self) -> ProbeInput;
}

/// Stream hints with every field set; the workloads override what they
/// vary. Nothing here is left to `FLEXIO_RUNTIME` / `FLEXIO_TRANSPORT`.
pub fn explicit_hints(
    runtime: flexio::Runtime,
    transport: flexio::Transport,
    caching: flexio::CachingLevel,
    batching: bool,
    write_mode: flexio::WriteMode,
) -> StreamHints {
    StreamHints::builder()
        .runtime(runtime)
        .runtime_threads(1)
        .transport(transport)
        .caching(caching)
        .batching(batching)
        .write_mode(write_mode)
        .queue_entries(64)
        .inline_capacity(512)
        .recv_timeout(std::time::Duration::from_secs(2))
        .retries(2)
        .transactional(false)
        .eos_on_silence(false)
        .packed_marshal(true)
        .build()
}

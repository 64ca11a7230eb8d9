//! `ctrl_small`: one writer and one reader exchanging 1 KiB per step on
//! the blocking engine, with every step paying the full handshake
//! (`NO_CACHING`), a step header and a synchronous-mode ack. The data
//! plane is negligible, so a step costs what the control path costs.

use std::collections::BTreeMap;

use adios::{ArrayData, BoxSel, LocalBlock, ReadEngine, Selection, VarValue};
use flexio::redistribute::Subscription;
use flexio::{CachingLevel, Runtime, StreamHints, StreamReader, Transport, WriteMode};
use machine::CoreLocation;

use crate::harness::{digest_f64s, mix, Coupling, Stop};
use crate::probes::ProbeInput;
use crate::ranks::{run_blocking, Consumed, Layout, ReaderRank, WriterRank};
use crate::workload::{explicit_hints, Verdict, Workload};

/// f64 elements per step: 1 KiB.
const ELEMS: u64 = 128;
const VAR: &str = "ctrl";

/// The workload, parameterized by its seed.
pub struct CtrlSmall {
    seed: u64,
}

impl CtrlSmall {
    /// Payload values come from `seed`.
    pub fn new(seed: u64) -> CtrlSmall {
        CtrlSmall { seed }
    }
}

/// The step's payload: `ELEMS` values in [0, 1) derived from the seed.
fn payload(seed: u64, step: u64) -> Vec<f64> {
    (0..ELEMS).map(|i| (mix(seed, step * ELEMS + i) >> 11) as f64 / (1u64 << 53) as f64).collect()
}

fn checksum(seed: u64, step: u64, values: &[f64]) -> u64 {
    digest_f64s(mix(seed, step), values)
}

/// The simulation rank: generates each step's payload.
pub struct CtrlWriter {
    seed: u64,
}

impl WriterRank for CtrlWriter {
    fn produce(&mut self, step: u64) -> Vec<(String, VarValue)> {
        let block = LocalBlock {
            global_shape: vec![ELEMS],
            offset: vec![0],
            count: vec![ELEMS],
            data: ArrayData::F64(payload(self.seed, step)),
        };
        vec![(VAR.to_string(), VarValue::Block(block.validated()))]
    }
}

/// The analytics rank: checksums each step.
pub struct CtrlReader {
    seed: u64,
    sums: Vec<(u64, u64)>,
    consumed: Consumed,
}

fn whole() -> Selection {
    Selection::GlobalBox(BoxSel::whole(&[ELEMS]))
}

impl ReaderRank for CtrlReader {
    type Data = Option<LocalBlock>;

    fn subscribe(&mut self, reader: &mut StreamReader) {
        reader.subscribe(VAR, whole());
    }

    fn read(&mut self, reader: &mut StreamReader, _step: u64) -> Option<LocalBlock> {
        match reader.read(VAR, &whole()) {
            Some(VarValue::Block(b)) => Some(b),
            _ => None,
        }
    }

    fn analyze(&mut self, step: u64, block: Option<LocalBlock>) {
        if let Some(b) = block {
            self.consumed.bytes += b.num_bytes();
            self.sums.push((step, checksum(self.seed, step, b.data.as_f64())));
        }
    }

    fn consumed(&self) -> Consumed {
        self.consumed
    }
}

impl Workload for CtrlSmall {
    type Reader = CtrlReader;
    type Reference = Vec<u64>;

    fn name(&self) -> &'static str {
        "ctrl_small"
    }

    fn hints(&self) -> StreamHints {
        explicit_hints(
            Runtime::Blocking,
            Transport::Shm,
            CachingLevel::NoCaching,
            false,
            WriteMode::Sync,
        )
    }

    fn describe(&self) -> String {
        format!(
            "\"writer_ranks\":1,\"reader_ranks\":1,\"bytes_per_step\":{},\
             \"placement\":\"helper core, one node, separate OS threads\"",
            ELEMS * 8
        )
    }

    fn couple(&self, stop: Stop, trace: bool) -> (Coupling, Vec<CtrlReader>) {
        let layout = Layout {
            stream: "ctrl.small",
            hints: self.hints(),
            writer_cores: vec![CoreLocation { node: 0, numa: 0, core: 0 }],
            reader_cores: vec![CoreLocation { node: 0, numa: 0, core: 1 }],
        };
        let writer = CtrlWriter { seed: self.seed };
        let reader =
            CtrlReader { seed: self.seed, sums: Vec::new(), consumed: Consumed::default() };
        run_blocking(layout, writer, reader, stop, trace)
    }

    fn reference(&self, steps: u64) -> Vec<u64> {
        (0..steps).map(|s| checksum(self.seed, s, &payload(self.seed, s))).collect()
    }

    fn check(&self, readers: &[CtrlReader], reference: &Vec<u64>, steps: u64) -> Verdict {
        let mut verdict = Verdict::default();
        let got: BTreeMap<u64, u64> = readers[0].sums.iter().copied().collect();
        for step in 0..steps {
            match got.get(&step) {
                Some(sum) if *sum == reference[step as usize] => {}
                Some(_) => verdict.fail(format!("step {step}: checksum differs")),
                None => verdict.fail(format!("step {step}: not delivered")),
            }
        }
        verdict
    }

    fn probe_input(&self) -> ProbeInput {
        let writers = vec![CtrlWriter { seed: self.seed }.produce(0)];
        let subs = vec![vec![Subscription { var: VAR.to_string(), sel: whole() }]];
        ProbeInput { writers, subs, plugin: None, batching: false }
    }
}

//! `s3d_mxn`: the paper's §IV.B S3D_Box visualization pipeline.
//!
//! Four writer ranks on a (1,2,2) process grid each write 22 species of
//! 21³ f64 (~1.6 MB per rank per step). Two reader ranks subscribe to
//! x-slabs of every species, so each writer block is cut into regions and
//! reassembled on the reader side (true MxN, Fig. 3). Each reader digests
//! its slabs, renders one species' slab, and the partial images are
//! composited depth-ordered once both are in.

use std::collections::BTreeMap;
use std::sync::{Arc, Mutex};

use adios::{BoxSel, LocalBlock, ReadEngine, Selection, VarValue};
use apps::s3d::{S3dBox, S3dConfig};
use apps::{composite_slabs, render_slab, write_ppm, Image, TransferFunction};
use flexio::redistribute::Subscription;
use flexio::{CachingLevel, Runtime, StreamHints, StreamReader, Transport, WriteMode};
use machine::CoreLocation;

use crate::harness::{mix, Coupling, Stop};
use crate::probes::ProbeInput;
use crate::ranks::{run_reactor, Consumed, Layout, ReaderRank, WriterRank};
use crate::workload::{explicit_hints, Verdict, Workload};

const WRITERS: usize = 4;
const READERS: usize = 2;

/// The workload, parameterized by its seed.
pub struct S3dMxn {
    config: S3dConfig,
    /// Simulation cycles run before the first output (input generation).
    warmup_cycles: u64,
    /// The species the readers render.
    species: usize,
    tf: TransferFunction,
}

impl S3dMxn {
    /// The seed picks the rendered species, the transfer function window
    /// and how far the simulation has evolved before the first output.
    pub fn new(seed: u64) -> S3dMxn {
        let config =
            S3dConfig { local_n: 21, nspecies: 22, output_interval: 1, proc_grid: (1, 2, 2) };
        let lo = 0.15 + 0.05 * (seed % 5) as f64;
        S3dMxn {
            warmup_cycles: seed % 4,
            species: (seed % config.nspecies as u64) as usize,
            tf: TransferFunction { lo, hi: lo + 0.5, opacity: 0.3 },
            config,
        }
    }

    fn shape(&self) -> [u64; 3] {
        self.config.global_shape()
    }

    /// Reader `j`'s x-slab.
    fn slab(&self, j: usize) -> BoxSel {
        flexio::redistribute::split_box(&BoxSel::whole(&self.shape()), READERS)[j]
            .clone()
            .expect("every reader gets a non-empty slab")
    }

    fn sims(&self) -> Vec<S3dBox> {
        (0..WRITERS)
            .map(|rank| {
                let mut sim = S3dBox::new(rank, self.config.clone());
                for _ in 0..self.warmup_cycles {
                    sim.step();
                }
                sim
            })
            .collect()
    }

    fn subscriptions(&self, j: usize) -> Vec<Subscription> {
        (0..self.config.nspecies)
            .map(|s| Subscription { var: species_name(s), sel: Selection::GlobalBox(self.slab(j)) })
            .collect()
    }
}

fn species_name(s: usize) -> String {
    format!("species{s:02}")
}

/// Order-independent digest of the part of `block` inside `within`:
/// a wrapping sum over elements of `mix(global index ⊕ species, bits)`.
fn region_digest(species: usize, block: &LocalBlock, within: &BoxSel) -> u64 {
    let Some(region) = BoxSel::new(block.offset.clone(), block.count.clone()).intersect(within)
    else {
        return 0;
    };
    let (gy, gz) = (block.global_shape[1], block.global_shape[2]);
    let (cy, cz) = (block.count[1], block.count[2]);
    let data = block.data.as_f64();
    let mut h = 0u64;
    for x in region.offset[0]..region.offset[0] + region.count[0] {
        for y in region.offset[1]..region.offset[1] + region.count[1] {
            let row = ((x - block.offset[0]) * cy + (y - block.offset[1])) * cz;
            let global_row = (x * gy + y) * gz;
            for z in region.offset[2]..region.offset[2] + region.count[2] {
                let v = data[(row + z - block.offset[2]) as usize];
                h = h.wrapping_add(mix((global_row + z) ^ ((species as u64) << 48), v.to_bits()));
            }
        }
    }
    h
}

/// One simulation rank.
pub struct S3dWriter(S3dBox);

impl WriterRank for S3dWriter {
    fn produce(&mut self, _step: u64) -> Vec<(String, VarValue)> {
        loop {
            self.0.step();
            if self.0.should_output() {
                break;
            }
        }
        self.0.output_vars()
    }
}

/// Partial images waiting for the other reader rank, and finished
/// composites (PPM bytes) per step.
#[derive(Default)]
pub struct Compositor {
    pending: BTreeMap<u64, Vec<Option<Image>>>,
    /// Composited frame per step.
    pub frames: BTreeMap<u64, Vec<u8>>,
}

impl Compositor {
    fn deposit(&mut self, step: u64, rank: usize, partial: Image) {
        let slots = self.pending.entry(step).or_insert_with(|| vec![None; READERS]);
        slots[rank] = Some(partial);
        if slots.iter().all(Option::is_some) {
            let slabs: Vec<Image> =
                self.pending.remove(&step).expect("present").into_iter().flatten().collect();
            self.frames.insert(step, write_ppm(&composite_slabs(&slabs)));
        }
    }
}

/// One analytics rank.
pub struct S3dReader {
    rank: usize,
    slab: BoxSel,
    subs: Vec<Subscription>,
    species: usize,
    tf: TransferFunction,
    compositor: Arc<Mutex<Compositor>>,
    digests: Vec<(u64, u64)>,
    consumed: Consumed,
}

impl ReaderRank for S3dReader {
    type Data = Vec<LocalBlock>;

    fn subscribe(&mut self, reader: &mut StreamReader) {
        for sub in &self.subs {
            reader.subscribe(&sub.var, sub.sel.clone());
        }
    }

    fn read(&mut self, reader: &mut StreamReader, _step: u64) -> Vec<LocalBlock> {
        self.subs
            .iter()
            .filter_map(|sub| match reader.read(&sub.var, &sub.sel) {
                Some(VarValue::Block(b)) => Some(b),
                _ => None,
            })
            .collect()
    }

    fn analyze(&mut self, step: u64, blocks: Vec<LocalBlock>) {
        let mut digest = mix(step, self.rank as u64);
        if blocks.len() != self.subs.len() {
            digest = 0; // an undelivered species fails the check
        }
        for (s, b) in blocks.iter().enumerate() {
            digest = digest.wrapping_add(region_digest(s, b, &self.slab));
            self.consumed.bytes += b.num_bytes();
        }
        self.digests.push((step, digest));
        if let Some(b) = blocks.get(self.species) {
            let partial = render_slab(b, &self.tf);
            self.compositor.lock().expect("compositor lock").deposit(step, self.rank, partial);
        }
    }

    fn consumed(&self) -> Consumed {
        self.consumed
    }
}

/// Per-step reader digests and composited frames of the serial run.
pub struct S3dReference {
    digests: Vec<[u64; READERS]>,
    frames: Vec<Vec<u8>>,
}

impl Workload for S3dMxn {
    type Reader = S3dReader;
    type Reference = S3dReference;

    fn name(&self) -> &'static str {
        "s3d_mxn"
    }

    fn hints(&self) -> StreamHints {
        explicit_hints(
            Runtime::Reactor,
            Transport::Tcp,
            CachingLevel::CachingAll,
            true,
            WriteMode::Async,
        )
    }

    fn describe(&self) -> String {
        let [gx, gy, gz] = self.shape();
        format!(
            "\"writer_ranks\":{WRITERS},\"reader_ranks\":{READERS},\"local_n\":{},\
             \"species\":{},\"bytes_per_writer_step\":{},\"global_shape\":[{gx},{gy},{gz}],\
             \"proc_grid\":[1,2,2],\"reader_split\":\"x-slabs\",\"render_species\":{},\
             \"warmup_cycles\":{},\"placement\":\"staging node, loopback tcp\"",
            self.config.local_n,
            self.config.nspecies,
            self.config.output_bytes(),
            self.species,
            self.warmup_cycles
        )
    }

    fn couple(&self, stop: Stop, trace: bool) -> (Coupling, Vec<S3dReader>) {
        let writers = self.sims().into_iter().map(S3dWriter).collect();
        let compositor = Arc::new(Mutex::new(Compositor::default()));
        let readers = (0..READERS)
            .map(|rank| S3dReader {
                rank,
                slab: self.slab(rank),
                subs: self.subscriptions(rank),
                species: self.species,
                tf: self.tf,
                compositor: Arc::clone(&compositor),
                digests: Vec::new(),
                consumed: Consumed::default(),
            })
            .collect();
        // Staging placement: simulation on node 0, analytics on node 1.
        let layout = Layout {
            stream: "s3d.species",
            hints: self.hints(),
            writer_cores: (0..WRITERS)
                .map(|c| CoreLocation { node: 0, numa: c / 2, core: c % 2 })
                .collect(),
            reader_cores: (0..READERS)
                .map(|c| CoreLocation { node: 1, numa: 0, core: c })
                .collect(),
        };
        run_reactor(layout, writers, readers, stop, trace)
    }

    fn reference(&self, steps: u64) -> S3dReference {
        let mut sims: Vec<S3dWriter> = self.sims().into_iter().map(S3dWriter).collect();
        let slabs: Vec<BoxSel> = (0..READERS).map(|j| self.slab(j)).collect();
        let shape = self.shape().to_vec();
        let mut digests = Vec::with_capacity(steps as usize);
        let mut frames = Vec::with_capacity(steps as usize);
        for step in 0..steps {
            let outputs: Vec<Vec<(String, VarValue)>> =
                sims.iter_mut().map(|s| s.produce(step)).collect();
            let mut row = [0u64; READERS];
            for (j, slab) in slabs.iter().enumerate() {
                row[j] = mix(step, j as u64);
                for out in &outputs {
                    for (s, (_, v)) in out.iter().enumerate() {
                        let VarValue::Block(b) = v else { continue };
                        row[j] = row[j].wrapping_add(region_digest(s, b, slab));
                    }
                }
            }
            digests.push(row);
            let mut full = LocalBlock {
                global_shape: shape.clone(),
                offset: vec![0; 3],
                count: shape.clone(),
                data: adios::ArrayData::F64(vec![0.0; shape.iter().product::<u64>() as usize]),
            }
            .validated();
            for out in &outputs {
                let VarValue::Block(b) = &out[self.species].1 else { continue };
                let region = BoxSel::new(b.offset.clone(), b.count.clone());
                adios::hyperslab::copy_region(b, &mut full, &region);
            }
            frames.push(write_ppm(&render_slab(&full, &self.tf)));
        }
        S3dReference { digests, frames }
    }

    fn check(&self, readers: &[S3dReader], reference: &S3dReference, steps: u64) -> Verdict {
        let mut verdict = Verdict::default();
        let frames = std::mem::take(&mut readers[0].compositor.lock().expect("compositor").frames);
        let per_reader: Vec<BTreeMap<u64, u64>> =
            readers.iter().map(|r| r.digests.iter().copied().collect()).collect();
        for step in 0..steps {
            let i = step as usize;
            let digests_ok = per_reader
                .iter()
                .enumerate()
                .all(|(j, d)| d.get(&step) == Some(&reference.digests[i][j]));
            let frame_ok = frames.get(&step) == Some(&reference.frames[i]);
            if !digests_ok {
                verdict.fail(format!("step {step}: slab data differs or was not delivered"));
            } else if !frame_ok {
                verdict.fail(format!("step {step}: composite is not PPM-identical"));
            }
        }
        verdict
    }

    fn probe_input(&self) -> ProbeInput {
        let writers = self.sims().into_iter().map(|sim| S3dWriter(sim).produce(0)).collect();
        let subs = (0..READERS).map(|j| self.subscriptions(j)).collect();
        ProbeInput { writers, subs, plugin: None, batching: true }
    }
}

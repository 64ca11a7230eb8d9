//! `gts_pushdown`: the paper's §IV.A GTS particle pipeline.
//!
//! Four writer ranks push particles and write `zion`/`electrons`, the
//! particle count and the flat `v_par` column every two cycles, in the
//! process-group pattern. Two reader ranks (writers `j` and `j+2` each)
//! deploy the ~20%-selective velocity bounding box as a writer-side Data
//! Conditioning plug-in, then build the distribution function over
//! `zion` and 1-D/2-D histograms of the surviving `v_par`; the histograms
//! are merged across reader ranks at the end.

use std::collections::BTreeMap;

use adios::{ArrayData, LocalBlock, ReadEngine, ScalarValue, Selection, VarValue};
use apps::gts::{Gts, GtsConfig, VPAR};
use apps::{distribution_function, Histogram1D, Histogram2D};
use flexio::{
    CachingLevel, PluginPlacement, PluginSpec, Runtime, StreamHints, StreamReader, Transport,
    WriteMode,
};
use machine::CoreLocation;

use crate::harness::{digest_f64s, mix, Coupling, Stop};
use crate::probes::ProbeInput;
use crate::ranks::{run_reactor, Consumed, Layout, ReaderRank, WriterRank};
use crate::workload::{explicit_hints, Verdict, Workload};

const WRITERS: usize = 4;
const READERS: usize = 2;
const PARTICLES_PER_RANK: usize = 3000;
const DIST_BINS: usize = 256;
const DIST_RANGE: (f64, f64) = (-2.0, 2.0);

/// The workload, parameterized by its seed.
pub struct GtsPushdown {
    config: GtsConfig,
    /// The bounding box deployed into the writers: `v_par ∈ [lo, hi]`.
    band: (f64, f64),
}

impl GtsPushdown {
    /// Particles come from `seed`; the band is the 40th–60th percentile
    /// of a probe rank's initial distribution, as the analytics would
    /// choose it.
    pub fn new(seed: u64) -> GtsPushdown {
        let config = GtsConfig { particles_per_rank: PARTICLES_PER_RANK, output_interval: 2, seed };
        let probe = Gts::new(0, config.clone());
        let dist = distribution_function(&probe.zion().data, DIST_BINS, DIST_RANGE);
        GtsPushdown { config, band: (dist.quantile(0.40), dist.quantile(0.60)) }
    }

    fn plugin(&self) -> PluginSpec {
        PluginSpec {
            var: "v_par".to_string(),
            source: codelet::plugins::bounding_box("v_par", self.band.0, self.band.1),
            placement: PluginPlacement::WriterSide,
        }
    }

    fn sims(&self) -> Vec<Gts> {
        (0..WRITERS).map(|r| Gts::new(r, self.config.clone())).collect()
    }
}

/// Run the particle push to the next output cycle.
fn advance(gts: &mut Gts) {
    loop {
        gts.step();
        if gts.should_output() {
            break;
        }
    }
}

fn vpar_block(gts: &Gts) -> VarValue {
    let v = gts.zion().column(VPAR);
    let n = v.len() as u64;
    VarValue::Block(
        LocalBlock {
            global_shape: vec![n],
            offset: vec![0],
            count: vec![n],
            data: ArrayData::F64(v),
        }
        .validated(),
    )
}

/// The bounding box the plug-in applies, computed natively.
fn in_band(v: f64, band: (f64, f64)) -> bool {
    v >= band.0 && v <= band.1
}

/// One simulation rank.
pub struct GtsWriter(Gts);

impl WriterRank for GtsWriter {
    fn produce(&mut self, _step: u64) -> Vec<(String, VarValue)> {
        advance(&mut self.0);
        let mut vars = self.0.output_vars();
        vars.push(("v_par".to_string(), vpar_block(&self.0)));
        vars
    }
}

/// The analytics state of one reader rank.
#[derive(Debug, Clone)]
pub struct Histograms {
    /// Weighted distribution function of `zion`'s `v_par`.
    pub dist: Histogram1D,
    /// 1-D histogram of the surviving `v_par`.
    pub vpar: Histogram1D,
    /// 2-D histogram of the surviving `(v_par, |v_par|)`.
    pub joint: Histogram2D,
}

impl Histograms {
    fn new(band: (f64, f64)) -> Histograms {
        Histograms {
            dist: Histogram1D::new(DIST_RANGE.0, DIST_RANGE.1, DIST_BINS),
            vpar: Histogram1D::new(band.0 - 0.05, band.1 + 0.05, 32),
            joint: Histogram2D::new(band, (0.0, 1.5), 16, 16),
        }
    }

    fn absorb(&mut self, zion: &[f64], selected: &[f64]) {
        self.dist.merge(&distribution_function(zion, DIST_BINS, DIST_RANGE));
        for &v in selected {
            self.vpar.add(v);
            self.joint.add(v, v.abs());
        }
    }

    fn merge(&mut self, other: &Histograms) {
        self.dist.merge(&other.dist);
        self.vpar.merge(&other.vpar);
        self.joint.merge(&other.joint);
    }

    fn bits(&self) -> Vec<u64> {
        let h1 = |h: &Histogram1D| {
            h.bins
                .iter()
                .chain([&h.underflow, &h.overflow])
                .map(|v| v.to_bits())
                .collect::<Vec<_>>()
        };
        let mut out = h1(&self.dist);
        out.extend(h1(&self.vpar));
        out.extend(self.joint.bins.iter().map(|v| v.to_bits()));
        out
    }
}

/// What one writer's process group contributed to a reader step.
pub struct GroupRead {
    writer: usize,
    nparticles: u64,
    zion: Vec<f64>,
    selected: Vec<f64>,
}

fn step_digest(step: u64, rank: usize, groups: &[GroupRead]) -> u64 {
    groups.iter().fold(mix(step, rank as u64), |h, g| {
        let h = mix(mix(h, g.writer as u64), g.nparticles);
        digest_f64s(digest_f64s(h, &g.zion), &g.selected)
    })
}

/// One analytics rank.
pub struct GtsReader {
    rank: usize,
    plugin: Option<PluginSpec>,
    hist: Histograms,
    digests: Vec<(u64, u64)>,
    consumed: Consumed,
}

impl GtsReader {
    fn my_writers(&self) -> [usize; 2] {
        [self.rank, self.rank + READERS]
    }
}

fn block_f64s(v: Option<VarValue>) -> Vec<f64> {
    match v {
        Some(VarValue::Block(LocalBlock { data: ArrayData::F64(d), .. })) => d,
        Some(VarValue::Block(b)) => b.data.as_f64().to_vec(),
        _ => Vec::new(),
    }
}

impl ReaderRank for GtsReader {
    type Data = Vec<GroupRead>;

    fn subscribe(&mut self, reader: &mut StreamReader) {
        for w in self.my_writers() {
            for var in ["zion", "v_par", "nparticles"] {
                reader.subscribe(var, Selection::ProcessGroup(w));
            }
        }
        if let Some(spec) = self.plugin.take() {
            reader.install_plugin(spec);
        }
    }

    fn read(&mut self, reader: &mut StreamReader, _step: u64) -> Vec<GroupRead> {
        self.my_writers()
            .into_iter()
            .map(|w| {
                let sel = Selection::ProcessGroup(w);
                let nparticles = match reader.read("nparticles", &sel) {
                    Some(VarValue::Scalar(ScalarValue::U64(n))) => n,
                    _ => 0,
                };
                let zion = block_f64s(reader.read("zion", &sel));
                let selected = block_f64s(reader.read("v_par", &sel));
                GroupRead { writer: w, nparticles, zion, selected }
            })
            .collect()
    }

    fn analyze(&mut self, step: u64, groups: Vec<GroupRead>) {
        for g in &groups {
            self.hist.absorb(&g.zion, &g.selected);
            self.consumed.bytes += 8 + 8 * (g.zion.len() + g.selected.len()) as u64;
            self.consumed.elems_in += g.nparticles;
            self.consumed.elems_kept += g.selected.len() as u64;
        }
        self.digests.push((step, step_digest(step, self.rank, &groups)));
    }

    fn consumed(&self) -> Consumed {
        self.consumed
    }
}

/// The serial reference: per-step digests per reader rank and the merged
/// histograms.
pub struct GtsReference {
    digests: Vec<[u64; READERS]>,
    merged: Histograms,
}

impl Workload for GtsPushdown {
    type Reader = GtsReader;
    type Reference = GtsReference;

    fn name(&self) -> &'static str {
        "gts_pushdown"
    }

    fn hints(&self) -> StreamHints {
        explicit_hints(
            Runtime::Reactor,
            Transport::Shm,
            CachingLevel::NoCaching,
            true,
            WriteMode::Async,
        )
    }

    fn describe(&self) -> String {
        format!(
            "\"writer_ranks\":{WRITERS},\"reader_ranks\":{READERS},\
             \"particles_per_rank\":{PARTICLES_PER_RANK},\"cycles_per_step\":{},\
             \"plugin\":\"bounding_box(v_par) writer-side\",\"band\":[{},{}],\
             \"pattern\":\"process-group\",\"placement\":\"helper cores, one node\"",
            self.config.output_interval, self.band.0, self.band.1
        )
    }

    fn couple(&self, stop: Stop, trace: bool) -> (Coupling, Vec<GtsReader>) {
        let writers = self.sims().into_iter().map(GtsWriter).collect();
        let readers = (0..READERS)
            .map(|rank| GtsReader {
                rank,
                plugin: (rank == 0).then(|| self.plugin()),
                hist: Histograms::new(self.band),
                digests: Vec::new(),
                consumed: Consumed::default(),
            })
            .collect();
        // Helper-core placement: eight cores on one node, simulation on
        // 0..4, analytics on 4 and 5.
        let core = |c: usize| CoreLocation { node: 0, numa: c / 4, core: c % 4 };
        let layout = Layout {
            stream: "gts.particles",
            hints: self.hints(),
            writer_cores: (0..WRITERS).map(core).collect(),
            reader_cores: (0..READERS).map(|r| core(WRITERS + r)).collect(),
        };
        run_reactor(layout, writers, readers, stop, trace)
    }

    fn reference(&self, steps: u64) -> GtsReference {
        let mut sims = self.sims();
        let mut acc = vec![Histograms::new(self.band); READERS];
        let mut digests = Vec::with_capacity(steps as usize);
        for step in 0..steps {
            for sim in sims.iter_mut() {
                advance(sim);
            }
            let mut row = [0u64; READERS];
            for (j, hist) in acc.iter_mut().enumerate() {
                let groups: Vec<GroupRead> = [j, j + READERS]
                    .into_iter()
                    .map(|w| {
                        let zion = sims[w].zion().data.clone();
                        let selected = sims[w]
                            .zion()
                            .column(VPAR)
                            .into_iter()
                            .filter(|&v| in_band(v, self.band));
                        GroupRead {
                            writer: w,
                            nparticles: sims[w].zion().len() as u64,
                            zion,
                            selected: selected.collect(),
                        }
                    })
                    .collect();
                for g in &groups {
                    hist.absorb(&g.zion, &g.selected);
                }
                row[j] = step_digest(step, j, &groups);
            }
            digests.push(row);
        }
        let mut merged = acc[0].clone();
        merged.merge(&acc[1]);
        GtsReference { digests, merged }
    }

    fn check(&self, readers: &[GtsReader], reference: &GtsReference, steps: u64) -> Verdict {
        let mut verdict = Verdict::default();
        let per_reader: Vec<BTreeMap<u64, u64>> =
            readers.iter().map(|r| r.digests.iter().copied().collect()).collect();
        for step in 0..steps {
            let problem = per_reader.iter().enumerate().find_map(|(j, got)| match got.get(&step) {
                Some(&d) if d == reference.digests[step as usize][j] => None,
                Some(_) => Some(format!("step {step} reader {j}: data differs")),
                None => Some(format!("step {step} reader {j}: not delivered")),
            });
            if let Some(note) = problem {
                verdict.fail(note);
            }
        }
        let mut merged = readers[0].hist.clone();
        for r in &readers[1..] {
            merged.merge(&r.hist);
        }
        if merged.bits() != reference.merged.bits() {
            // Every step fed the merged result, so every step failed.
            verdict.notes.push("merged histograms are not bit-identical to the reference".into());
            verdict.failed_steps = steps;
        }
        verdict
    }

    fn probe_input(&self) -> ProbeInput {
        let writers = self.sims().into_iter().map(|sim| GtsWriter(sim).produce(0)).collect();
        let subs = (0..READERS)
            .map(|j| {
                [j, j + READERS]
                    .into_iter()
                    .flat_map(|w| {
                        ["zion", "v_par", "nparticles"].map(|var| {
                            flexio::redistribute::Subscription {
                                var: var.to_string(),
                                sel: Selection::ProcessGroup(w),
                            }
                        })
                    })
                    .collect()
            })
            .collect();
        ProbeInput { writers, subs, plugin: Some(self.plugin()), batching: true }
    }
}

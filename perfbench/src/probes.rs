//! Standalone layer probes: the public functions of the marshal,
//! redistribution and plug-in layers, timed on one step of the
//! workload's own inputs. On reactor workloads a span around an awaited
//! call also covers other ranks' turns, so these probes are what isolate
//! a layer's own cost.

use std::borrow::Cow;
use std::sync::Arc;
use std::time::Instant;

use adios::{Selection, VarValue};
use evpath::ffs::{FieldValue, Record};
use flexio::plugins::InstalledPlugin;
use flexio::redistribute::{self, BoxAssembler, Subscription, VarMeta};
use flexio::PluginSpec;

use crate::stats::median;

/// One step of writer output and the reader subscriptions over it.
pub struct ProbeInput {
    /// Per writer rank: the `(name, value)` pairs it writes in one step.
    pub writers: Vec<Vec<(String, VarValue)>>,
    /// Per reader rank: its subscriptions.
    pub subs: Vec<Vec<Subscription>>,
    /// The writer-side plug-in, if the workload deploys one.
    pub plugin: Option<PluginSpec>,
    /// Whether chunks to one reader travel as one batch message.
    pub batching: bool,
}

/// Median per-step cost of each probed layer.
#[derive(Debug, Clone, Copy, Default)]
pub struct ProbeResult {
    /// `redistribute::extract_chunk` for every planned chunk, ms.
    pub extract_ms: f64,
    /// Record build + `Record::encode_segments` of every message, ms.
    pub encode_ms: f64,
    /// `Record::decode_shared` + `VarValue::from_record` of every message, ms.
    pub decode_ms: f64,
    /// `BoxAssembler` assembly of every global-box subscription, ms.
    pub assemble_ms: f64,
    /// `InstalledPlugin::apply` per input element, ns (0 without a plug-in).
    pub apply_ns_per_elem: f64,
}

/// Repetitions per probe: at least this many, and more until this much
/// time has been spent.
const MIN_REPS: usize = 7;
const MIN_PROBE_SECS: f64 = 0.3;
const MAX_REPS: usize = 200;

fn ms_since(t: Instant) -> f64 {
    t.elapsed().as_secs_f64() * 1e3
}

/// One pass over every probed layer; returns the per-layer times (ms)
/// and the plug-in's `(ns, elements)`.
fn one_pass(input: &ProbeInput, plugin: Option<&InstalledPlugin>) -> ([f64; 4], (f64, u64)) {
    let metas: Vec<Vec<VarMeta>> = input
        .writers
        .iter()
        .map(|vars| vars.iter().map(|(n, v)| VarMeta::of(n, v)).collect())
        .collect();
    let plan = redistribute::plan(&metas, &input.subs);
    let value_of = |w: usize, var: &str| {
        input.writers[w].iter().find(|(n, _)| n == var).map(|(_, v)| v).expect("planned var")
    };

    // Extract every planned chunk.
    let t = Instant::now();
    let mut chunks: Vec<(usize, usize, String, Cow<'_, VarValue>)> = Vec::new();
    for (w, row) in plan.iter().enumerate() {
        for (r, plans) in row.iter().enumerate() {
            for cp in plans {
                let payload = redistribute::extract_chunk(value_of(w, &cp.var), cp);
                chunks.push((w, r, cp.var.clone(), payload));
            }
        }
    }
    let extract_ms = ms_since(t);

    // Writer-side conditioning happens before marshaling (untimed here:
    // the plug-in has its own probe below).
    let mut apply_ns = 0.0;
    let mut apply_elems = 0u64;
    if let Some(p) = plugin {
        for chunk in chunks.iter_mut().filter(|c| c.2 == p.spec.var) {
            apply_elems += match chunk.3.as_ref() {
                VarValue::Block(b) => b.num_elements(),
                VarValue::Scalar(_) => 0,
            };
            let t = Instant::now();
            let applied = p.apply(&chunk.3);
            apply_ns += t.elapsed().as_nanos() as f64;
            if let Ok((v, _extras)) = applied {
                chunk.3 = Cow::Owned(v);
            }
        }
    }

    // Marshal: one message per (writer, reader) pair when batching, else
    // one per chunk.
    let t = Instant::now();
    let mut messages: Vec<Record> = Vec::new();
    let pairs = plan.iter().enumerate().flat_map(|(w, row)| (0..row.len()).map(move |r| (w, r)));
    for (w, r) in pairs {
        let records: Vec<Record> = chunks
            .iter()
            .filter(|c| c.0 == w && c.1 == r)
            .map(|c| {
                Record::new()
                    .with("var", FieldValue::Str(c.2.clone()))
                    .with("body", FieldValue::Record(c.3.to_record()))
            })
            .collect();
        if input.batching && !records.is_empty() {
            let mut batch = Record::new().with("n", FieldValue::U64(records.len() as u64));
            for (i, rec) in records.into_iter().enumerate() {
                batch.set(&format!("c.{i}"), FieldValue::Record(rec));
            }
            messages.push(batch);
        } else {
            messages.extend(records);
        }
    }
    let mut wire: Vec<Arc<Vec<u8>>> = Vec::with_capacity(messages.len());
    let mut encode_ns = t.elapsed().as_nanos() as f64;
    for m in &messages {
        let t = Instant::now();
        let enc = m.encode_segments();
        encode_ns += t.elapsed().as_nanos() as f64;
        wire.push(Arc::new(enc.to_vec()));
    }
    drop(messages);

    // Unmarshal on the reader side.
    let t = Instant::now();
    let mut decoded: Vec<(String, VarValue)> = Vec::new();
    for buf in &wire {
        let rec = Record::decode_shared(buf).expect("probe message decodes");
        let bodies: Vec<&Record> = if input.batching {
            let n = rec.get_u64("n").unwrap_or(0);
            (0..n).filter_map(|i| rec.get_record(&format!("c.{i}"))).collect()
        } else {
            vec![&rec]
        };
        for chunk in bodies {
            let var = chunk.get_str("var").unwrap_or_default().to_string();
            let body = chunk.get_record("body").expect("chunk body");
            decoded.push((var, VarValue::from_record(body).expect("chunk value decodes")));
        }
    }
    let decode_ms = ms_since(t);

    // Assemble every global-box subscription from the decoded regions.
    let t = Instant::now();
    for subs in &input.subs {
        for sub in subs {
            let Selection::GlobalBox(want) = &sub.sel else { continue };
            let mut assembler: Option<BoxAssembler> = None;
            for (var, value) in &decoded {
                let VarValue::Block(b) = value else { continue };
                let have = adios::BoxSel::new(b.offset.clone(), b.count.clone());
                if var != &sub.var || have.intersect(want).is_none() {
                    continue;
                }
                assembler.get_or_insert_with(|| BoxAssembler::new(want, b)).add(b);
            }
            std::hint::black_box(assembler.map(BoxAssembler::finish));
        }
    }
    let assemble_ms = ms_since(t);
    std::hint::black_box(&decoded);

    ([extract_ms, encode_ns / 1e6, decode_ms, assemble_ms], (apply_ns, apply_elems))
}

/// Run every probe on `input` and report medians.
pub fn run(input: &ProbeInput) -> ProbeResult {
    let plugin = input
        .plugin
        .clone()
        .map(|spec| InstalledPlugin::install(spec).expect("workload plug-in compiles"));
    let mut samples: [Vec<f64>; 4] = Default::default();
    let mut per_elem = Vec::new();
    let start = Instant::now();
    let mut reps = 0;
    while reps < MIN_REPS || (start.elapsed().as_secs_f64() < MIN_PROBE_SECS && reps < MAX_REPS) {
        let (times, (ns, elems)) = one_pass(input, plugin.as_ref());
        for (s, t) in samples.iter_mut().zip(times) {
            s.push(t);
        }
        if elems > 0 {
            per_elem.push(ns / elems as f64);
        }
        reps += 1;
    }
    let med = |v: &[f64]| median(v).unwrap_or(0.0);
    ProbeResult {
        extract_ms: med(&samples[0]),
        encode_ms: med(&samples[1]),
        decode_ms: med(&samples[2]),
        assemble_ms: med(&samples[3]),
        apply_ns_per_elem: med(&per_elem),
    }
}

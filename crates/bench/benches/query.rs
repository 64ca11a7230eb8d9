//! **Query pushdown** — bytes moved across the transport for a
//! selective filter evaluated writer-side vs reader-side.
//!
//! One writer streams 1 MiB f64 chunks; the reader runs the same
//! `field < 0.2` plan (20%-selective on the synthetic data) twice: once
//! with the filter lowered to a writer-side Data Conditioning plug-in
//! and once fully reader-side. Both runs must produce bit-identical
//! query outputs; the headline is the wire-bytes ratio (no-pushdown /
//! pushdown), which must exceed 3× — the paper's location-flexibility
//! argument in miniature: moving the computation beats moving the data.
//! Pushdown must also match the reader-side run's steps/s (best of
//! several alternating passes each) while cutting bytes moved by >= 4x:
//! the writer-side filter has to run at native speed for moving the
//! computation to pay.
//!
//! Results land in `BENCH_query.json`. Run with
//! `cargo bench --bench query`; set `QUERY_QUICK=1` for smoke runs.

use std::thread;
use std::time::{Duration, Instant};

use adios::{ArrayData, LocalBlock, VarValue, WriteEngine};
use flexio::query::{Expr, Plan};
use flexio::{FlexIo, MonitorEvent, QueryConfig, QuerySession, StreamHints};
use machine::laptop;

/// 1 MiB of f64 per chunk.
const ELEMS: usize = 128 * 1024;

fn hints() -> StreamHints {
    StreamHints { recv_timeout: Duration::from_secs(10), retries: 2, ..StreamHints::default() }
}

fn payload(step: u64) -> VarValue {
    // Values cycle 0.000..0.999, shifted per step so every step differs;
    // `field < 0.2` keeps exactly 20% regardless of the shift.
    let data: Vec<f64> =
        (0..ELEMS).map(|i| ((i as u64 + step * 7) % 1000) as f64 / 1000.0).collect();
    VarValue::Block(
        LocalBlock {
            global_shape: vec![ELEMS as u64],
            offset: vec![0],
            count: vec![ELEMS as u64],
            data: ArrayData::F64(data),
        }
        .validated(),
    )
}

struct RunOut {
    wire_bytes: u64,
    rows_in: u64,
    rows_out: u64,
    bytes_pushed_down: u64,
    bytes_saved: u64,
    elapsed_s: f64,
    digest: u64,
}

fn run(pushdown: bool, steps: u64) -> RunOut {
    let io = FlexIo::new(laptop(), 4);
    let io_w = io.clone();
    let m = laptop();
    let wcore = m.node.location_of(0);
    let rcore = m.node.location_of(m.total_cores() - 1);
    let start = Instant::now();
    let wt = thread::spawn(move || {
        rankrt::launch_named(1, "sim", move |_comm| {
            let mut w = io_w
                .open_writer("query-bench", 0, 1, wcore, vec![wcore], hints())
                .expect("open writer");
            for step in 0..steps {
                w.begin_step(step);
                w.write("field", payload(step));
                w.end_step();
            }
            let bytes = w.link().monitor.total_bytes(MonitorEvent::DataSend);
            w.close();
            bytes
        })
    });
    let rt = thread::spawn(move || {
        rankrt::launch_named(1, "ana", move |_comm| {
            let r = io
                .open_reader("query-bench", 0, 1, rcore, vec![rcore], hints())
                .expect("open reader");
            let plan = Plan::select(&["field"]).filter(Expr::col("field").lt(Expr::lit(0.2)));
            let cfg = QueryConfig { pushdown, ..QueryConfig::default() };
            let session = QuerySession::attach(r, 1, plan, cfg).expect("attach");
            assert_eq!(session.pushdown_active(), pushdown);
            let counters = session.counters();
            let out = session.run_to_end().expect("query run");
            (counters.snapshot(), out.digest())
        })
    });
    let wire_bytes = wt.join().expect("writer")[0];
    let ((rows_in, rows_out, bytes_pushed_down, bytes_saved), digest) =
        rt.join().expect("reader").pop().expect("one reader");
    RunOut {
        wire_bytes,
        rows_in,
        rows_out,
        bytes_pushed_down,
        bytes_saved,
        elapsed_s: start.elapsed().as_secs_f64(),
        digest,
    }
}

fn main() {
    if std::env::args().any(|a| a == "--test") {
        println!("query: skipped under test harness");
        return;
    }
    let quick = std::env::var("QUERY_QUICK").is_ok();
    let steps: u64 = if quick { 6 } else { 24 };

    // Warm up first (thread pools, allocator arenas, page cache) so the
    // timed runs compare like with like; otherwise whichever mode runs
    // first pays every cold-start cost.
    run(true, 2);
    // Several passes, alternating which mode goes first; each mode keeps
    // its fastest pass. A single quick pass lasts a few milliseconds per
    // mode, short enough for host noise alone to decide the throughput gate.
    let passes = if quick { 5 } else { 2 };
    let (mut with, mut without) = (Vec::new(), Vec::new());
    for pass in 0..passes {
        if pass % 2 == 0 {
            with.push(run(true, steps));
            without.push(run(false, steps));
        } else {
            without.push(run(false, steps));
            with.push(run(true, steps));
        }
    }

    // Correctness gates first, on every pass: pushdown must be
    // result-invisible, and the counters must account for exactly the
    // bytes that stayed home.
    for (with, without) in with.iter().zip(&without) {
        assert_eq!(with.digest, without.digest, "pushdown changed the query result");
        assert_eq!(with.rows_in, steps * ELEMS as u64);
        assert_eq!((without.bytes_pushed_down, without.bytes_saved), (0, 0));
        assert_eq!(with.bytes_pushed_down, with.rows_in * 8, "all chunks conditioned writer-side");
        assert_eq!(with.bytes_saved, (with.rows_in - with.rows_out) * 8);
    }
    let fastest = |runs: Vec<RunOut>| {
        runs.into_iter().min_by(|a, b| a.elapsed_s.total_cmp(&b.elapsed_s)).expect("passes > 0")
    };
    let (with, without) = (fastest(with), fastest(without));

    let ratio = without.wire_bytes as f64 / with.wire_bytes as f64;
    let selectivity = with.rows_out as f64 / with.rows_in as f64;
    eprintln!(
        "query: {:.1}% selective filter, wire bytes {} -> {} ({ratio:.2}x reduction)",
        selectivity * 100.0,
        without.wire_bytes,
        with.wire_bytes
    );
    assert!(
        ratio >= 3.0,
        "writer-side pushdown must cut bytes moved by >= 3x on a 20%-selective \
         filter (got {ratio:.2}x: {} -> {} bytes)",
        without.wire_bytes,
        with.wire_bytes
    );

    // With the plug-in compiled to native code, filtering writer-side must
    // not cost throughput relative to shipping everything: pushdown wins
    // on bytes *and* keeps up on steps/s (best pass against best pass).
    let (pushed, shipped) = (steps as f64 / with.elapsed_s, steps as f64 / without.elapsed_s);
    assert!(
        ratio >= 4.0 && pushed >= shipped,
        "pushdown must move >= 4x fewer bytes at no throughput cost: \
         ratio {ratio:.2}x, pushdown {pushed:.1} steps/s vs reader-side {shipped:.1} steps/s"
    );

    let mut rep = bench::report::Report::new("query")
        .u64("chunk_bytes", (ELEMS * 8) as u64)
        .u64("passes", passes)
        .f64("selectivity", selectivity, 3)
        .f64("bytes_moved_ratio", ratio, 2);
    for (mode, r) in [("pushdown", &with), ("reader_side", &without)] {
        rep.push(
            bench::report::Obj::new()
                .str("mode", mode)
                .u64("steps", steps)
                .u64("wire_bytes", r.wire_bytes)
                .u64("rows_in", r.rows_in)
                .u64("rows_out", r.rows_out)
                .u64("bytes_pushed_down", r.bytes_pushed_down)
                .u64("bytes_saved", r.bytes_saved)
                .f64("elapsed_s", r.elapsed_s, 6)
                .f64("steps_per_s", steps as f64 / r.elapsed_s, 3),
        );
    }
    rep.write();
}

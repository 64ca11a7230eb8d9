//! The two ways a workload's ranks are driven through the public API.
//!
//! * [`run_reactor`]: the writer ranks are tasks on one
//!   `flexio_reactor::Reactor` thread (the "simulation"), the reader ranks
//!   tasks on a second one (the "analytics"), using the `*_rt` entry
//!   points.
//! * [`run_blocking`]: one writer and one reader, each on its own OS
//!   thread, using the blocking engine.
//!
//! Both are closed loops with one client per writer rank: a rank begins
//! its next step only when its previous `end_step` has returned. Spans
//! are recorded around every call into a layer.

use std::cell::RefCell;
use std::rc::Rc;
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::{Arc, OnceLock};
use std::thread;
use std::time::{Duration, Instant};

use adios::{ReadEngine, StepStatus, VarValue, WriteEngine};
use flexio::link::LinkState;
use flexio::{FlexIo, StreamHints, StreamReader, StreamWriter};
use machine::CoreLocation;

use crate::harness::{Counters, Coupling, ReaderSample, StepGate, Stop, WriterSample};
use crate::sysinfo::{pin_current_thread, CpuMeter};
use crate::trace::{Side, ThreadSpans, Tracer, NO_STEP};

/// Span slots reserved per thread in a traced run.
const SPAN_CAPACITY: usize = 1 << 17;

/// One simulation rank: produces the variables of each output step.
pub trait WriterRank: Send + 'static {
    /// Advance the simulation to its next output and return what it writes.
    fn produce(&mut self, step: u64) -> Vec<(String, VarValue)>;
}

/// What the analytics consumed, for the payload-efficiency and
/// selectivity figures.
#[derive(Debug, Clone, Copy, Default)]
pub struct Consumed {
    /// Payload bytes the analytics read.
    pub bytes: u64,
    /// Elements offered to the data-conditioning plug-in.
    pub elems_in: u64,
    /// Elements that survived it.
    pub elems_kept: u64,
}

/// One analytics rank.
pub trait ReaderRank: Send + 'static {
    /// What [`ReaderRank::read`] hands to [`ReaderRank::analyze`].
    type Data;
    /// Subscribe (and, on rank 0, deploy plug-ins) before the first step.
    fn subscribe(&mut self, reader: &mut StreamReader);
    /// Read this step's variables from the stream.
    fn read(&mut self, reader: &mut StreamReader, step: u64) -> Self::Data;
    /// Run the analytics on what was read.
    fn analyze(&mut self, step: u64, data: Self::Data);
    /// Totals for the run so far.
    fn consumed(&self) -> Consumed;
}

/// A coupling's fixed description.
pub struct Layout {
    /// Stream name.
    pub stream: &'static str,
    /// Hints, every field a workload depends on set explicitly.
    pub hints: StreamHints,
    /// Writer rank placements.
    pub writer_cores: Vec<CoreLocation>,
    /// Reader rank placements.
    pub reader_cores: Vec<CoreLocation>,
}

/// Per-thread results gathered from the tasks on that thread.
#[derive(Default)]
struct SideOut {
    open_ms: Vec<f64>,
    ready: Vec<Instant>,
    writer: Vec<WriterSample>,
    reader: Vec<ReaderSample>,
    errors: Vec<String>,
    link: Option<Arc<LinkState>>,
}

struct ThreadResult<T> {
    out: SideOut,
    cpu: f64,
    spans: ThreadSpans,
    ranks: Vec<T>,
}

fn finish_thread<T>(
    label: &'static str,
    out: Rc<RefCell<SideOut>>,
    tracer: Rc<Tracer>,
    ranks: Vec<Rc<RefCell<T>>>,
    cpu: &CpuMeter,
) -> ThreadResult<T> {
    let cpu = cpu.finish();
    let tracer = Rc::try_unwrap(tracer).ok().expect("all tasks finished");
    let dropped = tracer.dropped();
    ThreadResult {
        out: Rc::try_unwrap(out).ok().expect("all tasks finished").into_inner(),
        cpu,
        spans: ThreadSpans { thread: label, spans: tracer.into_spans(), dropped },
        ranks: ranks
            .into_iter()
            .map(|r| Rc::try_unwrap(r).ok().expect("all tasks finished").into_inner())
            .collect(),
    }
}

fn assemble<W, R>(
    t0: Instant,
    sim: ThreadResult<W>,
    ana: ThreadResult<R>,
    steps_begun: u64,
    nreaders: usize,
) -> (Coupling, Vec<R>)
where
    R: ReaderRank,
{
    let ready = sim.out.ready.iter().chain(&ana.out.ready).max().copied().unwrap_or(t0);
    let mut errors = sim.out.errors;
    errors.extend(ana.out.errors);
    let consumed =
        ana.ranks.iter().map(|r| r.consumed()).fold(Consumed::default(), |a, b| Consumed {
            bytes: a.bytes + b.bytes,
            elems_in: a.elems_in + b.elems_in,
            elems_kept: a.elems_kept + b.elems_kept,
        });
    let counters = sim.out.link.as_deref().map(Counters::of).unwrap_or_default();
    let mut open_ms = sim.out.open_ms;
    open_ms.extend(ana.out.open_ms);
    let coupling = Coupling {
        setup_s: ready.saturating_duration_since(t0).as_secs_f64(),
        open_ms,
        steps_begun,
        nreaders,
        writer: sim.out.writer,
        reader: ana.out.reader,
        errors,
        counters,
        needed_bytes: consumed.bytes,
        elems_in: consumed.elems_in,
        elems_kept: consumed.elems_kept,
        writer_cpu: sim.cpu,
        reader_cpu: ana.cpu,
        threads: vec![sim.spans, ana.spans],
    };
    (coupling, ana.ranks)
}

/// Writer ranks on one reactor thread, reader ranks on another.
pub fn run_reactor<W: WriterRank, R: ReaderRank>(
    layout: Layout,
    writers: Vec<W>,
    readers: Vec<R>,
    stop: Stop,
    trace: bool,
) -> (Coupling, Vec<R>) {
    let nw = writers.len();
    let nr = readers.len();
    assert_eq!(nw, layout.writer_cores.len());
    assert_eq!(nr, layout.reader_cores.len());
    let Layout { stream, hints, writer_cores, reader_cores } = layout;
    let line = StartLine::new();
    let (line_w, hints_w) = (Arc::clone(&line), hints.clone());
    let sim = thread::Builder::new()
        .name("sim".into())
        .spawn(move || {
            pin_current_thread(0);
            let (io_w, epoch) = line_w.runtime();
            let mut line_w = Some(line_w);
            let cpu = CpuMeter::start();
            let tracer = Rc::new(Tracer::new(trace, epoch, SPAN_CAPACITY));
            let out = Rc::new(RefCell::new(SideOut::default()));
            let gate = Rc::new(StepGate::new(stop));
            let ranks: Vec<Rc<RefCell<W>>> =
                writers.into_iter().map(|w| Rc::new(RefCell::new(w))).collect();
            let mut reactor = flexio_reactor::Reactor::new();
            for (rank, sim_rank) in ranks.iter().enumerate() {
                let (io, hints, cores) = (io_w.clone(), hints_w.clone(), writer_cores.clone());
                let (tracer, out, gate, sim_rank) =
                    (tracer.clone(), out.clone(), gate.clone(), sim_rank.clone());
                let line = if rank == 0 { line_w.take() } else { None };
                reactor.spawn(async move {
                    let t = tracer.start();
                    let opened = Instant::now();
                    let w = io.open_writer_rt(stream, rank, nw, cores[rank], cores.clone(), hints);
                    let w = w.await;
                    if let Some(line) = line {
                        line.register();
                    }
                    tracer.record("link.open", t, None, Side::Writer, rank, NO_STEP);
                    out.borrow_mut().open_ms.push(opened.elapsed().as_secs_f64() * 1e3);
                    let mut w = match w {
                        Ok(w) => w,
                        Err(e) => {
                            let mut o = out.borrow_mut();
                            o.errors.push(format!("writer {rank} open: {e:?}"));
                            o.ready.push(Instant::now()); // release the others' wait
                            if rank == 0 {
                                gate.stop_at(0);
                            }
                            return;
                        }
                    };
                    all_opened(&out, nw).await;
                    let mut i = 0u64;
                    loop {
                        let go = if rank == 0 { gate.decide(i) } else { gate.follow(i).await };
                        if !go {
                            break;
                        }
                        let span = tracer.open("bench.step", Side::Writer, rank);
                        let t = tracer.start();
                        let vars = sim_rank.borrow_mut().produce(i);
                        tracer.record("apps.sim", t, span, Side::Writer, rank, i);
                        let begin = Instant::now();
                        let t = tracer.start();
                        write_vars(&mut w, i, vars);
                        tracer.record("writer.write", t, span, Side::Writer, rank, i);
                        let end_enter = Instant::now();
                        let t = tracer.start();
                        let ended = w.end_step_rt().await;
                        tracer.record("writer.end_step", t, span, Side::Writer, rank, i);
                        let end_exit = Instant::now();
                        tracer.close(span, i);
                        if let Err(e) = ended {
                            out.borrow_mut().errors.push(format!("writer {rank} step {i}: {e:?}"));
                            if rank == 0 {
                                gate.stop_at(i);
                            }
                            break;
                        }
                        out.borrow_mut().writer.push(WriterSample {
                            step: i,
                            begin,
                            end_enter,
                            end_exit,
                        });
                        i += 1;
                    }
                    close_writer(w, rank, &out);
                });
            }
            reactor.run();
            let begun = gate.begun();
            (finish_thread("sim", out, tracer, ranks, &cpu), begun)
        })
        .expect("spawn simulation thread");
    let line_r = Arc::clone(&line);
    let ana = thread::Builder::new()
        .name("analytics".into())
        .spawn(move || {
            pin_current_thread(1);
            let (io, epoch) = line_r.registered_runtime();
            let cpu = CpuMeter::start();
            let tracer = Rc::new(Tracer::new(trace, epoch, SPAN_CAPACITY));
            let out = Rc::new(RefCell::new(SideOut::default()));
            let ranks: Vec<Rc<RefCell<R>>> =
                readers.into_iter().map(|r| Rc::new(RefCell::new(r))).collect();
            let mut reactor = flexio_reactor::Reactor::new();
            for (rank, ana_rank) in ranks.iter().enumerate() {
                let (io, hints, cores) = (io.clone(), hints.clone(), reader_cores.clone());
                let (tracer, out, ana_rank) = (tracer.clone(), out.clone(), ana_rank.clone());
                reactor.spawn(async move {
                    let t = tracer.start();
                    let opened = Instant::now();
                    let r = io.open_reader_rt(stream, rank, nr, cores[rank], cores.clone(), hints);
                    let r = r.await;
                    tracer.record("link.open", t, None, Side::Reader, rank, NO_STEP);
                    out.borrow_mut().open_ms.push(opened.elapsed().as_secs_f64() * 1e3);
                    let mut r = match r {
                        Ok(r) => r,
                        Err(e) => {
                            let mut o = out.borrow_mut();
                            o.errors.push(format!("reader {rank} open: {e:?}"));
                            o.ready.push(Instant::now()); // release the others' wait
                            return;
                        }
                    };
                    ana_rank.borrow_mut().subscribe(&mut r);
                    all_opened(&out, nr).await;
                    loop {
                        let span = tracer.open("bench.step", Side::Reader, rank);
                        let t = tracer.start();
                        let status = r.begin_step_rt().await;
                        let step = match &status {
                            Ok(StepStatus::Step(s)) => *s,
                            _ => NO_STEP,
                        };
                        tracer.record("reader.begin_step", t, span, Side::Reader, rank, step);
                        let keep_going = reader_step(
                            &mut r,
                            status,
                            rank,
                            &mut *ana_rank.borrow_mut(),
                            &tracer,
                            span,
                            &out,
                        );
                        tracer.close(span, step);
                        if !keep_going {
                            break;
                        }
                    }
                    r.close();
                });
            }
            reactor.run();
            finish_thread("analytics", out, tracer, ranks, &cpu)
        })
        .expect("spawn analytics thread");

    let t0 = line.start();
    let (sim, begun) = sim.join().expect("simulation thread panicked");
    let ana = ana.join().expect("analytics thread panicked");
    assemble(t0, sim, ana, begun, nr)
}

/// Lines a coupling's two threads up before its set-up clock starts.
///
/// Both threads are created and pinned first; then the main thread starts
/// the clock and creates the runtime (`FlexIo` and its directory), which
/// the threads pick up. The analytics thread also waits until the writer
/// coordinator has opened, and so registered, the stream, as when
/// analytics attach to a running simulation. Waiting threads poll and
/// yield their core instead of sleeping, so `setup_s` measures the
/// middleware's set-up, not how long the host takes to create a thread or
/// wake a parked one: with those inside, the median `setup_s` of ten runs
/// moved by half between sets of runs of the same build.
struct StartLine {
    runtime: OnceLock<(FlexIo, Instant)>,
    waiting: AtomicUsize,
    registered: AtomicBool,
}

/// Longest a thread polls for its partner before the run is abandoned.
const START_TIMEOUT: Duration = Duration::from_secs(30);

fn poll_until<T>(what: &str, mut ready: impl FnMut() -> Option<T>) -> T {
    let deadline = Instant::now() + START_TIMEOUT;
    loop {
        if let Some(v) = ready() {
            return v;
        }
        assert!(Instant::now() < deadline, "coupling start: {what} never happened");
        thread::yield_now();
    }
}

impl StartLine {
    fn new() -> Arc<StartLine> {
        Arc::new(StartLine {
            runtime: OnceLock::new(),
            waiting: AtomicUsize::new(0),
            registered: AtomicBool::new(false),
        })
    }

    /// A rank thread: report in, then wait for the runtime and the
    /// instant set-up started.
    fn runtime(&self) -> (FlexIo, Instant) {
        self.waiting.fetch_add(1, Ordering::SeqCst);
        poll_until("runtime creation", || self.runtime.get().cloned())
    }

    /// The analytics thread: the runtime, once the stream is registered.
    fn registered_runtime(&self) -> (FlexIo, Instant) {
        let runtime = self.runtime();
        poll_until("stream registration", || self.registered.load(Ordering::SeqCst).then_some(()));
        runtime
    }

    /// The writer coordinator opened the stream (or failed to).
    fn register(&self) {
        self.registered.store(true, Ordering::SeqCst);
    }

    /// Main thread: once both threads wait, start the clock and create
    /// the runtime. Returns the start instant.
    fn start(&self) -> Instant {
        poll_until("rank threads start", || {
            (self.waiting.load(Ordering::SeqCst) == 2).then_some(())
        });
        let t0 = Instant::now();
        let io = FlexIo::single_node(machine::laptop());
        assert!(self.runtime.set((io, t0)).is_ok(), "a coupling starts once");
        t0
    }
}

/// Record that this rank finished set-up, then wait until all `ranks`
/// tasks on this thread have. Tasks are first polled one after another,
/// so without this a rank's set-up would also count the simulation steps
/// of the ranks polled before it.
async fn all_opened(out: &RefCell<SideOut>, ranks: usize) {
    out.borrow_mut().ready.push(Instant::now());
    while out.borrow().ready.len() < ranks {
        flexio_reactor::yield_now().await;
    }
}

fn write_vars(w: &mut StreamWriter, step: u64, vars: Vec<(String, VarValue)>) {
    w.begin_step(step);
    for (name, value) in vars {
        w.write(&name, value);
    }
}

fn close_writer(mut w: StreamWriter, rank: usize, out: &RefCell<SideOut>) {
    if rank == 0 {
        out.borrow_mut().link = Some(Arc::clone(w.link()));
    }
    w.close();
}

/// One reader step after `begin_step` returned: read, analyze, end the
/// step. Returns whether the reader loop continues.
fn reader_step<R: ReaderRank>(
    r: &mut StreamReader,
    status: Result<StepStatus, flexio::link::StreamError>,
    rank: usize,
    ana: &mut R,
    tracer: &Tracer,
    span: Option<u32>,
    out: &RefCell<SideOut>,
) -> bool {
    let step = match status {
        Ok(StepStatus::Step(s)) => s,
        Ok(StepStatus::EndOfStream) => return false,
        Err(e) => {
            out.borrow_mut().errors.push(format!("reader {rank} begin_step: {e:?}"));
            return false;
        }
    };
    let t = tracer.start();
    let data = ana.read(r, step);
    tracer.record("reader.read", t, span, Side::Reader, rank, step);
    let t = tracer.start();
    ana.analyze(step, data);
    tracer.record("apps.analytics", t, span, Side::Reader, rank, step);
    let finish = Instant::now();
    let t = tracer.start();
    r.end_step();
    tracer.record("reader.end_step", t, span, Side::Reader, rank, step);
    out.borrow_mut().reader.push(ReaderSample { step, finish });
    true
}

/// One writer and one reader, each on its own OS thread, on the blocking
/// engine.
pub fn run_blocking<W: WriterRank, R: ReaderRank>(
    layout: Layout,
    writer: W,
    reader: R,
    stop: Stop,
    trace: bool,
) -> (Coupling, Vec<R>) {
    assert_eq!((layout.writer_cores.len(), layout.reader_cores.len()), (1, 1));
    let Layout { stream, hints, writer_cores, reader_cores } = layout;
    let line = StartLine::new();
    let (line_w, hints_w) = (Arc::clone(&line), hints.clone());
    let sim = thread::Builder::new()
        .name("writer".into())
        .spawn(move || {
            pin_current_thread(0);
            let (io_w, epoch) = line_w.runtime();
            let cpu = CpuMeter::start();
            let tracer = Rc::new(Tracer::new(trace, epoch, SPAN_CAPACITY));
            let out = Rc::new(RefCell::new(SideOut::default()));
            let gate = StepGate::new(stop);
            let sim_rank = Rc::new(RefCell::new(writer));
            let core = writer_cores[0];
            let t = tracer.start();
            let opened = Instant::now();
            let w = io_w.open_writer(stream, 0, 1, core, writer_cores, hints_w);
            line_w.register();
            tracer.record("link.open", t, None, Side::Writer, 0, NO_STEP);
            out.borrow_mut().open_ms.push(opened.elapsed().as_secs_f64() * 1e3);
            match w {
                Err(e) => {
                    out.borrow_mut().errors.push(format!("writer 0 open: {e:?}"));
                }
                Ok(mut w) => {
                    out.borrow_mut().ready.push(Instant::now());
                    let mut i = 0u64;
                    while gate.decide(i) {
                        let span = tracer.open("bench.step", Side::Writer, 0);
                        let t = tracer.start();
                        let vars = sim_rank.borrow_mut().produce(i);
                        tracer.record("apps.sim", t, span, Side::Writer, 0, i);
                        let begin = Instant::now();
                        let t = tracer.start();
                        write_vars(&mut w, i, vars);
                        tracer.record("writer.write", t, span, Side::Writer, 0, i);
                        let end_enter = Instant::now();
                        let t = tracer.start();
                        let ended = w.try_end_step();
                        tracer.record("writer.end_step", t, span, Side::Writer, 0, i);
                        let end_exit = Instant::now();
                        tracer.close(span, i);
                        if let Err(e) = ended {
                            out.borrow_mut().errors.push(format!("writer 0 step {i}: {e:?}"));
                            gate.stop_at(i);
                            break;
                        }
                        out.borrow_mut().writer.push(WriterSample {
                            step: i,
                            begin,
                            end_enter,
                            end_exit,
                        });
                        i += 1;
                    }
                    close_writer(w, 0, &out);
                }
            }
            let begun = gate.begun();
            (finish_thread("writer", out, tracer, vec![sim_rank], &cpu), begun)
        })
        .expect("spawn writer thread");
    let line_r = Arc::clone(&line);
    let ana = thread::Builder::new()
        .name("reader".into())
        .spawn(move || {
            pin_current_thread(1);
            let (io, epoch) = line_r.registered_runtime();
            let cpu = CpuMeter::start();
            let tracer = Rc::new(Tracer::new(trace, epoch, SPAN_CAPACITY));
            let out = Rc::new(RefCell::new(SideOut::default()));
            let ana_rank = Rc::new(RefCell::new(reader));
            let core = reader_cores[0];
            let t = tracer.start();
            let opened = Instant::now();
            let r = io.open_reader(stream, 0, 1, core, reader_cores, hints);
            tracer.record("link.open", t, None, Side::Reader, 0, NO_STEP);
            out.borrow_mut().open_ms.push(opened.elapsed().as_secs_f64() * 1e3);
            match r {
                Err(e) => out.borrow_mut().errors.push(format!("reader 0 open: {e:?}")),
                Ok(mut r) => {
                    ana_rank.borrow_mut().subscribe(&mut r);
                    out.borrow_mut().ready.push(Instant::now());
                    loop {
                        let span = tracer.open("bench.step", Side::Reader, 0);
                        let t = tracer.start();
                        let status = r.try_begin_step();
                        let step = match &status {
                            Ok(StepStatus::Step(s)) => *s,
                            _ => NO_STEP,
                        };
                        tracer.record("reader.begin_step", t, span, Side::Reader, 0, step);
                        let keep_going = reader_step(
                            &mut r,
                            status,
                            0,
                            &mut *ana_rank.borrow_mut(),
                            &tracer,
                            span,
                            &out,
                        );
                        tracer.close(span, step);
                        if !keep_going {
                            break;
                        }
                    }
                    r.close();
                }
            }
            finish_thread("reader", out, tracer, vec![ana_rank], &cpu)
        })
        .expect("spawn reader thread");

    let t0 = line.start();
    let (sim, begun) = sim.join().expect("writer thread panicked");
    let ana = ana.join().expect("reader thread panicked");
    assemble(t0, sim, ana, begun, 1)
}

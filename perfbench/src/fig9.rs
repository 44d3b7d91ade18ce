//! `fig9_observed`: the paper's Figure 9 — network congestion, a GARA
//! network reservation, a CPU hog, a DSRT reservation — with the
//! observability the `fig9_combined` binary arms: flight recorder at
//! `TRACE_CAPACITY`, packet tracer, a 100 ms timeline, and the
//! `metrics.json` / `timeline.json` exports (built in memory, not
//! written). The scenario is assembled from the same public pieces
//! `fig9_combined_run` uses, so its wrappers can sit between them.
//!
//! It runs the figure on the binary's `--fast` clock (phases at 4, 9, 13
//! and 17 s, 21 s in all), so a run repeats it often enough for steady
//! medians. The seed moves the contention start by up to 0.5 s and its
//! offered load by up to ±2%; seed 0 is the unperturbed figure.
//!
//! A step is one simulated millisecond: the run is advanced by
//! `Net::run_until` in 1 ms slices and each slice is timed.

use crate::common::{net_counts, run_sliced, upcall_layers, Layers, Mode, Outcome, Rep};
use crate::layers::{PollClock, Span, Timed, TimedProgram};
use mpichgq_apps::{finish_viz, GarnetLab, Scheduler, VizCfg, VizReceiver, VizSender};
use mpichgq_bench::{phase_mean, Fig9Cfg, TIMELINE_DEFAULT_MS, TRACE_CAPACITY};
use mpichgq_core::{enable_qos, QosAgentCfg};
use mpichgq_gara::{CpuRequest, Gara, NetworkRequest, Request, StartSpec};
use mpichgq_mpi::{JobBuilder, MpiCfg, MpiProgram};
use mpichgq_netsim::{DepthRule, GarnetCfg, PolicingAction, Proto};
use mpichgq_sim::{SimDelta, SimRng, SimTime};
use mpichgq_tcp::TcpCfg;
use std::rc::Rc;
use std::time::Instant;

pub const STEP: SimDelta = SimDelta::from_millis(1);

/// The `fig9_combined --fast` staging.
fn fig9_cfg() -> Fig9Cfg {
    Fig9Cfg {
        congestion_at: SimTime::from_secs(4),
        net_reservation_at: SimTime::from_secs(9),
        hog_at: SimTime::from_secs(13),
        cpu_reservation_at: SimTime::from_secs(17),
        duration: SimTime::from_secs(21),
        ..Fig9Cfg::default()
    }
}

/// Result names, in `Outcome::result` order: the five phase means (Kb/s)
/// and the frames the receiver got.
pub const PHASES: [&str; 5] = [
    "clean_kbps",
    "congestion_kbps",
    "net_reservation_kbps",
    "cpu_contention_kbps",
    "cpu_reservation_kbps",
];

/// The contention start offset and offered load for `seed`.
fn contention(seed: u64, cfg: &Fig9Cfg) -> (SimTime, u64) {
    if seed == 0 {
        return (cfg.congestion_at, cfg.contention_bps);
    }
    let mut rng = SimRng::new(seed).fork_labeled("fig9");
    let at = cfg.congestion_at + SimDelta::from_millis(rng.below(501));
    let permille = 980 + rng.below(41);
    (at, cfg.contention_bps / 1000 * permille)
}

pub fn rep(seed: u64, mode: Mode) -> Rep {
    let cfg = fig9_cfg();
    let traced = mode == Mode::Traced;
    let armed = mode != Mode::Disarmed;

    let t0 = Instant::now();
    let mut lab = GarnetLab::new(GarnetCfg::default(), 0.7);
    if armed {
        lab.sim.net.obs.enable_trace(TRACE_CAPACITY);
        lab.sim.net.enable_packet_tracing();
        lab.sim
            .net
            .enable_timeline(SimDelta::from_millis(TIMELINE_DEFAULT_MS));
    }
    let (cont_at, cont_bps) = contention(seed, &cfg);
    lab.add_contention(cont_bps, cont_at, cfg.duration);
    let frame_bytes = (cfg.target_mbps * 1e6 / 8.0 / cfg.fps).round() as u32;
    let vcfg = VizCfg {
        frame_bytes,
        fps: cfg.fps,
        work_per_frame: SimDelta::from_secs_f64(1.0 / cfg.fps * cfg.work_fraction),
        start: SimTime::from_millis(200),
        end: cfg.duration,
    };
    let tcp = TcpCfg {
        send_buf: 512 * 1024,
        recv_buf: 512 * 1024,
        ..TcpCfg::default()
    };
    let (builder, _env) = enable_qos(JobBuilder::new(), QosAgentCfg::default());
    let (tx, _stats, proc_out) = VizSender::new(vcfg, None);
    let (rx, meter, frames) = VizReceiver::new(SimDelta::from_secs(1), cfg.duration);
    let polls = PollClock::default();
    let wrap = |p: Box<dyn MpiProgram>| -> Box<dyn MpiProgram> {
        if traced {
            Box::new(TimedProgram {
                inner: p,
                clock: Rc::clone(&polls),
            })
        } else {
            p
        }
    };
    let (psrc, pdst) = (lab.premium_src, lab.premium_dst);
    let _job = builder
        .rank(psrc, wrap(Box::new(tx)))
        .rank(pdst, wrap(Box::new(rx)))
        .cfg(MpiCfg {
            tcp,
            ..Default::default()
        })
        .launch(&mut lab.sim);

    let mut sched = Scheduler::new();
    let net_rate = (cfg.target_mbps * 1e6 * 1.1) as u64;
    sched.at(cfg.net_reservation_at, move |net, stack| {
        let mut gara = stack.take_service::<Gara>().expect("GARA installed");
        gara.reserve(
            net,
            Request::Network(NetworkRequest {
                src: psrc,
                dst: pdst,
                proto: Proto::Tcp,
                src_port: None,
                dst_port: None,
                rate_bps: net_rate,
                depth: DepthRule::Normal,
                action: PolicingAction::Drop,
                shape_at_source: false,
            }),
            StartSpec::Now,
            None,
        )
        .expect("network reservation admitted");
        stack.put_service_box(gara);
    });
    sched.at(cfg.hog_at, move |net, _stack| {
        net.cpu_spawn_hog(psrc);
    });
    let cpu_frac = cfg.cpu_fraction;
    sched.at(cfg.cpu_reservation_at, move |net, stack| {
        let proc = proc_out.borrow().expect("viz sender started");
        let mut gara = stack.take_service::<Gara>().expect("GARA installed");
        gara.reserve(
            net,
            Request::Cpu(CpuRequest {
                host: psrc,
                proc,
                fraction: cpu_frac,
            }),
            StartSpec::Now,
            None,
        )
        .expect("CPU reservation admitted");
        stack.put_service_box(gara);
    });
    sched.install(&mut lab.sim);
    let setup_s = t0.elapsed().as_secs_f64();

    let mut layers = Layers::new();
    let net = &mut lab.sim.net;
    let t_run = Instant::now();
    let steps_ns = if traced {
        let mut h = Timed::new(&mut lab.sim.stack, true);
        let steps = run_sliced(net, &mut h, cfg.duration, STEP);
        net.timeline_finalize(&mut h, cfg.duration);
        upcall_layers(&h.up, t_run.elapsed().as_secs_f64(), &mut layers);
        steps
    } else {
        let steps = run_sliced(net, &mut lab.sim.stack, cfg.duration, STEP);
        net.timeline_finalize(&mut lab.sim.stack, cfg.duration);
        steps
    };
    let fingerprint = net.state_fingerprint();
    let events = net.events_processed();
    let t_export = Instant::now();
    let export_bytes = if armed {
        let metrics = net.metrics_json();
        let timeline = net.timeline_json().expect("timeline armed");
        metrics.len() + timeline.len()
    } else {
        0
    };
    let export_s = t_export.elapsed().as_secs_f64();
    let run_s = t_run.elapsed().as_secs_f64();

    if traced {
        net_counts(net, &lab.sim.stack, &mut layers);
        let p: Span = polls.get();
        layers.insert("mpi.poll_s", p.secs());
        layers.insert("mpi.poll.n", p.n as f64);
        layers.insert("obs.export_s", export_s);
        layers.insert("obs.export_bytes", export_bytes as f64);
    }

    let series = finish_viz(
        meter,
        frames.clone(),
        cfg.duration,
        SimTime::ZERO,
        cfg.duration,
    )
    .series;
    let ends = [
        cfg.congestion_at,
        cfg.net_reservation_at,
        cfg.hog_at,
        cfg.cpu_reservation_at,
        cfg.duration,
    ]
    .map(|t| t.as_secs_f64());
    let starts = [
        2.0,
        ends[0] + 1.0,
        ends[1] + 1.0,
        ends[2] + 1.0,
        ends[3] + 1.0,
    ];
    let mut result: Vec<(&'static str, f64)> = PHASES
        .iter()
        .enumerate()
        .map(|(i, &name)| (name, phase_mean(&series, starts[i], ends[i])))
        .collect();
    result.push(("frames_received", *frames.borrow() as f64));
    Rep {
        setup_s,
        run_s,
        steps_ns,
        out: Outcome {
            fingerprint,
            events,
            result,
        },
        layers,
    }
}

/// Seed-independent sanity: the figure's shape — full, depressed,
/// restored, depressed, restored.
pub fn sane(out: &Outcome) -> Result<(), String> {
    let p: Vec<f64> = out.result[..5].iter().map(|r| r.1).collect();
    let target = fig9_cfg().target_mbps * 1000.0;
    let ok = p[0] > 0.9 * target
        && p[1] < 0.5 * p[0]
        && p[2] > 0.9 * target
        && p[3] < 0.8 * p[2]
        && p[4] > 0.9 * target;
    if ok {
        Ok(())
    } else {
        Err(format!(
            "fig9_observed phase means lost the figure's shape: {p:?}"
        ))
    }
}

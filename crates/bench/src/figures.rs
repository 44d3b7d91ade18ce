//! The figure registry: every paper figure, table and beyond-paper
//! experiment, by the stem of its `results/<name>.txt` file. The `fig`
//! binary renders entries by name; the regenerate script, CI and the
//! registry-vs-artifacts test all go through this one list.
//!
//! A renderer prints the series/rows its figure reports and writes the
//! run artifacts (`metrics.json`, `timeline.json`, and for lifecycle
//! figures `trace.json`) under `results/`.

use crate::output::{print_series, print_sweep, print_table, write_report};
use crate::{
    af_conformance, chaos, chaos_ranks, fig1, fig5, fig5_sweep, fig6, fig6_sweep, fig7, fig8, fig9,
    min_reservation, phase_mean, qdisc_ablation, qdisc_cell_labels, sec3_finite_difference, table1,
    viz_delivery_ratio, AfConformanceCfg, ChaosCfg, ChaosRanksCfg, Fig1Cfg, Fig5Cfg, Fig6Cfg,
    Fig8Cfg, Fig9Cfg, RunOpts, Sec3Cfg, Sec3Qos,
};
use mpichgq_core::{ip_overhead_factor, wire_overhead_factor, DEFAULT_MSS};
use mpichgq_netsim::{DepthRule, Framing, Garnet, GarnetCfg, NodeId, NodeKind, PolicingAction};
use mpichgq_sim::{SimDelta, SimTime};
use std::io::{self, Write};

/// One registered figure.
pub struct Figure {
    /// The `results/<name>.txt` stem.
    pub name: &'static str,
    /// Print the figure to the writer and write its run artifacts. The
    /// flag selects the reduced `--fast` sweeps/schedules the CI jobs use;
    /// figures without a reduced form ignore it.
    pub render: fn(&mut dyn Write, bool, &RunOpts) -> io::Result<()>,
}

/// Every figure, in `fig all` order.
pub static FIGURES: [Figure; 14] = [
    Figure {
        name: "fig1",
        render: render_fig1,
    },
    Figure {
        name: "fig4",
        render: render_fig4,
    },
    Figure {
        name: "fig5",
        render: render_fig5,
    },
    Figure {
        name: "fig6",
        render: render_fig6,
    },
    Figure {
        name: "fig7",
        render: render_fig7,
    },
    Figure {
        name: "fig8",
        render: render_fig8,
    },
    Figure {
        name: "fig9",
        render: render_fig9,
    },
    Figure {
        name: "table1",
        render: render_table1,
    },
    Figure {
        name: "sec3",
        render: render_sec3,
    },
    Figure {
        name: "ablations",
        render: render_ablations,
    },
    Figure {
        name: "chaos",
        render: render_chaos,
    },
    Figure {
        name: "chaos_ranks",
        render: render_chaos_ranks,
    },
    Figure {
        name: "af_conformance",
        render: render_af_conformance,
    },
    Figure {
        name: "qdisc_ablation",
        render: render_qdisc_ablation,
    },
];

/// Figure 1: "An application using TCP has made a reservation for only
/// 40 Mb/s, when it is sending at 50 Mb/s" — the bandwidth trace
/// oscillates as TCP repeatedly overruns the policer, loses packets,
/// backs off, and climbs again.
fn render_fig1(out: &mut dyn Write, fast: bool, opts: &RunOpts) -> io::Result<()> {
    let mut cfg = Fig1Cfg::default();
    if fast {
        cfg.duration = SimTime::from_secs(30);
    }
    let r = fig1(cfg, opts);
    print_series(
        out,
        "Figure 1: TCP at 50 Mb/s with a 40 Mb/s reservation (bandwidth vs time)",
        "bandwidth_kbps",
        &r.out,
    )?;
    writeln!(
        out,
        "# summary: min {:.0} Kb/s, max {:.0} Kb/s, mean {:.0} Kb/s (paper: sawtooth ~22000-52000)",
        r.out.min(),
        r.out.max(),
        r.out.mean()
    )?;
    write_report("fig1", &r, false);
    Ok(())
}

/// Figure 4: the GARNET testbed model — topology inventory.
fn render_fig4(out: &mut dyn Write, _fast: bool, _opts: &RunOpts) -> io::Result<()> {
    let g = Garnet::build(GarnetCfg::default());
    writeln!(out, "# Figure 4: GARNET testbed model")?;
    for i in 0..g.net.node_count() {
        let id = NodeId(i as u32);
        let n = g.net.node(id);
        let kind = match n.kind {
            NodeKind::Host => "host",
            NodeKind::Router => "router",
        };
        writeln!(out, "{id}: {kind} {}", n.name)?;
    }
    writeln!(out, "# channels (directed):")?;
    for c in g.net.chan_ids() {
        let ch = g.net.chan(c);
        writeln!(
            out,
            "{} -> {}: {} Mb/s, {:.3} ms, {:?}{}",
            ch.from,
            ch.to,
            ch.cfg.bandwidth_bps / 1_000_000,
            ch.cfg.delay.as_secs_f64() * 1e3,
            ch.cfg.framing,
            if ch.edge_ingress {
                " [edge ingress]"
            } else {
                ""
            }
        )?;
    }
    let d = g.net.path_delay(g.premium_src, g.premium_dst).unwrap();
    writeln!(
        out,
        "# premium path one-way propagation delay: {:.3} ms",
        d.as_secs_f64() * 1e3
    )
}

/// Figure 5: "The effect of different reservation sizes for the ping-pong
/// MPICH-GQ program. Each line represents the throughput achieved for a
/// particular message size at different reservation sizes."
fn render_fig5(out: &mut dyn Write, fast: bool, opts: &RunOpts) -> io::Result<()> {
    let msgs = [8u32, 40, 80, 120]; // kilobits, as in the paper
    let reservations: Vec<f64> = if fast {
        vec![0.0, 1000.0, 3000.0, 6000.0, 9000.0, 12000.0]
    } else {
        (0..=12).map(|i| i as f64 * 1000.0).collect()
    };
    let rows = fig5_sweep(&msgs, &reservations, fast);
    print_sweep(
        out,
        "Figure 5: one-way ping-pong throughput vs one-way reservation, under heavy UDP contention",
        "msg_kbits",
        "reservation_kbps",
        "one_way_throughput_kbps",
        &rows,
    )?;
    for (msg, pts) in &rows {
        let max = pts.iter().map(|&(_, v)| v).fold(0.0, f64::max);
        writeln!(out, "# {msg} Kb messages saturate at {max:.0} Kb/s")?;
    }
    // Artifacts for one representative point (80 Kb messages, 6 Mb/s
    // reservation — mid-sweep, reservation active): the sweep itself runs
    // across threads, so a single instrumented rerun keeps the snapshot
    // attributable to one simulation.
    let mut cfg = Fig5Cfg::new(80 * 1000 / 8, 6000.0);
    if fast {
        cfg.duration = SimTime::from_secs(8);
        cfg.warmup = SimTime::from_secs(3);
    }
    write_report("fig5", &fig5(cfg, opts), false);
    Ok(())
}

/// Figure 6: "The effect of different reservations on the visualization
/// application attempting different throughputs. Note that making a
/// reservation that is even a little bit too small dramatically decreases
/// the throughput that is achieved."
fn render_fig6(out: &mut dyn Write, fast: bool, opts: &RunOpts) -> io::Result<()> {
    let frames_kb = [5u32, 10, 20, 30]; // at 10 fps: 400..2400 Kb/s attempted
    let reservations: Vec<f64> = if fast {
        vec![0.0, 400.0, 800.0, 1200.0, 1600.0, 2000.0, 2400.0, 2800.0]
    } else {
        (0..=14).map(|i| i as f64 * 200.0).collect()
    };
    let rows = fig6_sweep(&frames_kb, &reservations, fast);
    print_sweep(
        out,
        "Figure 6: visualization throughput vs reservation (10 frames/s), under contention",
        "frame_kbytes",
        "reservation_kbps",
        "achieved_kbps",
        &rows,
    )?;
    for (fk, pts) in &rows {
        let target = fk * 80;
        let knee = pts
            .iter()
            .find(|&&(_, v)| v >= 0.97 * target as f64)
            .map(|&(r, _)| r);
        match knee {
            Some(r) => writeln!(
                out,
                "# {target} Kb/s attempted: adequate at ~{r:.0} Kb/s ({:.2}x)",
                r / target as f64
            )?,
            None => writeln!(
                out,
                "# {target} Kb/s attempted: not achieved in the sweep range"
            )?,
        }
    }
    // Representative instrumented rerun (20 KB frames, 1600 Kb/s
    // reservation — at the knee) for the artifacts.
    let mut cfg = Fig6Cfg::new(20 * 1000, 10.0, 1600.0);
    if fast {
        cfg.duration = SimTime::from_secs(10);
    }
    write_report("fig6", &fig6(cfg, opts), false);
    Ok(())
}

/// Figure 7: "TCP traces of two programs that each send at 400 Kb/s, but
/// with very different burstiness characteristics" — sequence number vs
/// time for 10 frames/s (40 Kb frames) and 1 frame/s (400 Kb frame).
fn render_fig7(out: &mut dyn Write, _fast: bool, opts: &RunOpts) -> io::Result<()> {
    let window = SimTime::from_secs(1);
    for (label, fps) in [("10fps_40kb_frames", 10.0), ("1fps_400kb_frame", 1.0)] {
        let r = fig7(fps, window, opts);
        print_series(
            out,
            &format!("Figure 7 ({label}): TCP data-segment sequence numbers over 1 s"),
            "sequence_number",
            &r.out,
        )?;
        // Burstiness summary: fraction of the second during which segments
        // were emitted.
        let times: Vec<f64> = r
            .out
            .points()
            .iter()
            .map(|(t, _)| t.as_secs_f64())
            .collect();
        if times.len() > 1 {
            let span = times.last().unwrap() - times.first().unwrap();
            writeln!(
                out,
                "# {label}: {} segments emitted over {span:.3} s of the window",
                times.len()
            )?;
        }
        write_report(&format!("fig7_{label}"), &r, true);
    }
    Ok(())
}

/// Figure 8: "The bandwidth achieved by the visualization application.
/// Contention for the CPU on the sending side begins at 10 seconds, and a
/// reservation is made at 20 seconds."
fn render_fig8(out: &mut dyn Write, _fast: bool, opts: &RunOpts) -> io::Result<()> {
    let r = fig8(Fig8Cfg::default(), opts);
    print_series(
        out,
        "Figure 8: visualization bandwidth with CPU contention at 10 s, DSRT reservation at 20 s",
        "bandwidth_kbps",
        &r.out,
    )?;
    writeln!(
        out,
        "# phases: clean {:.0} Kb/s | hog {:.0} Kb/s | 90% CPU reservation {:.0} Kb/s (paper: ~15000 | ~8000 | ~15000)",
        phase_mean(&r.out, 2.0, 10.0),
        phase_mean(&r.out, 11.0, 20.0),
        phase_mean(&r.out, 22.0, 30.0),
    )?;
    write_report("fig8", &r, true);
    Ok(())
}

/// Figure 9: "Initially it runs well (0-10 seconds), then network
/// congestion affects its bandwidth (11-20 seconds) until a network
/// reservation is made (21-30 seconds). Bandwidth again decreases when
/// there is CPU contention at the sender (31-40 seconds) until there is a
/// CPU reservation (41-50 seconds)."
fn render_fig9(out: &mut dyn Write, fast: bool, opts: &RunOpts) -> io::Result<()> {
    let cfg = if fast {
        // Same staged phases on a compressed clock: enough of each phase to
        // see the level shifts, quick enough for the CI figures job.
        Fig9Cfg {
            congestion_at: SimTime::from_secs(4),
            net_reservation_at: SimTime::from_secs(9),
            hog_at: SimTime::from_secs(13),
            cpu_reservation_at: SimTime::from_secs(17),
            duration: SimTime::from_secs(21),
            ..Fig9Cfg::default()
        }
    } else {
        Fig9Cfg::default()
    };
    let r = fig9(cfg, opts);
    let series = &r.out;
    print_series(
        out,
        "Figure 9: 35 Mb/s visualization under staged network + CPU contention and reservations",
        "bandwidth_kbps",
        series,
    )?;
    let phase_ends = [
        cfg.congestion_at,
        cfg.net_reservation_at,
        cfg.hog_at,
        cfg.cpu_reservation_at,
        cfg.duration,
    ]
    .map(|t| t.as_secs_f64());
    writeln!(
        out,
        "# phases: clean {:.0} | congestion {:.0} | net reservation {:.0} | cpu contention {:.0} | cpu reservation {:.0} Kb/s",
        phase_mean(series, 2.0, phase_ends[0]),
        phase_mean(series, phase_ends[0] + 1.0, phase_ends[1]),
        phase_mean(series, phase_ends[1] + 1.0, phase_ends[2]),
        phase_mean(series, phase_ends[2] + 1.0, phase_ends[3]),
        phase_mean(series, phase_ends[3] + 1.0, phase_ends[4]),
    )?;
    writeln!(out, "# paper shape: full | depressed | restored | depressed | restored — both reservations are needed")?;
    write_report("fig9", &r, false);
    Ok(())
}

/// Table 1: "The reservation required to achieve a specified throughput,
/// for varying degrees of 'burstiness' (expressed in frames per second)
/// and token bucket sizes."
fn render_table1(out: &mut dyn Write, fast: bool, _opts: &RunOpts) -> io::Result<()> {
    let rows = table1(&[400.0, 800.0, 1600.0, 2400.0], 0.95, fast);
    let table: Vec<Vec<String>> = rows
        .iter()
        .map(|r| {
            vec![
                format!("{:.0}", r.target_kbps),
                format!("{:.0}", r.fps10_normal),
                format!("{:.0}", r.fps1_normal),
                format!("{:.0}", r.fps1_large),
            ]
        })
        .collect();
    print_table(
        out,
        "Table 1: reservation (Kb/s) required for a target bandwidth",
        &[
            "bandwidth_desired",
            "normal_bucket_10fps",
            "normal_bucket_1fps",
            "large_bucket_1fps",
        ],
        &table,
    )?;
    writeln!(out, "# paper:           400 -> 500 / 750 / 500")?;
    writeln!(out, "# paper:           800 -> 900 / 1450 / 900")?;
    writeln!(out, "# paper:          1600 -> 1700 / 2700 / 1700")?;
    writeln!(out, "# paper:          2400 -> 2500 / 3600 / 2500")?;
    for r in &rows {
        writeln!(
            out,
            "# {:.0}: burstiness penalty {:.0}% (paper ~50%), eliminated by large bucket: {}",
            r.target_kbps,
            (r.fps1_normal / r.fps10_normal - 1.0) * 100.0,
            r.fps1_large <= r.fps10_normal * 1.1
        )?;
    }
    Ok(())
}

/// The §3 anecdote, quantified: a finite-difference application across
/// two 8-host sites averages 1 Mb/s over the WAN, but sends its 100 KB
/// halo as a burst. "If we configure our network to support a premium
/// flow at this rate, we find that things do not perform as we expect."
fn render_sec3(out: &mut dyn Write, fast: bool, _opts: &RunOpts) -> io::Result<()> {
    let base = Sec3Cfg {
        iterations: if fast { 15 } else { 30 },
        ..Sec3Cfg::default()
    };
    let premium = |kbps: f64, depth: DepthRule, shaped: bool| Sec3Cfg {
        contention: true,
        qos: Sec3Qos::Premium {
            kbps,
            depth,
            shaped,
        },
        ..base
    };
    let cases: [(&str, Sec3Cfg); 6] = [
        ("uncontended best-effort (baseline)", base),
        (
            "contended, no reservation",
            Sec3Cfg {
                contention: true,
                ..base
            },
        ),
        (
            "premium at the 1 Mb/s average rate, bw/40 bucket (the paper's trap)",
            premium(1_000.0, DepthRule::Normal, false),
        ),
        (
            "premium 1 Mb/s, LARGE bucket (burst fits)",
            premium(1_000.0, DepthRule::Large, false),
        ),
        (
            "premium 1.3 Mb/s + end-system shaping (§5.4)",
            premium(1_300.0, DepthRule::Normal, true),
        ),
        (
            "premium 3 Mb/s, bw/40 bucket (over-reserving instead)",
            premium(3_000.0, DepthRule::Normal, false),
        ),
    ];
    writeln!(
        out,
        "# §3: finite-difference across two sites; ideal = 1.25 iterations/s (0.8 s compute)\n\
         configuration,iterations_done,steady_iters_per_sec,fraction_of_ideal"
    )?;
    for (label, cfg) in cases {
        let r = sec3_finite_difference(cfg);
        writeln!(
            out,
            "\"{label}\",{},{:.3},{:.2}",
            r.iterations_done,
            r.steady_iters_per_sec,
            r.steady_iters_per_sec / r.ideal_iters_per_sec
        )?;
    }
    writeln!(
        out,
        "# the average-rate reservation with the normal bucket underperforms:\n\
         # the 100 KB burst exceeds the 1 Mb/s bucket's 3.1 KB depth, so most of\n\
         # every halo is policed away and TCP slow-starts (paper §3)."
    )
}

/// Ablations of the design choices DESIGN.md §4 calls out:
///
/// 1. edge policing action: drop vs demote;
/// 2. token-bucket depth rules (see also `table1`), and the MPI eager
///    threshold;
/// 3. end-system traffic shaping (§5.4's proposal);
/// 4. TCP era: the burstiness penalty's sensitivity to the minimum RTO;
/// 5. layer-2 framing: where the paper's 1.06× reservation factor comes
///    from.
fn render_ablations(out: &mut dyn Write, fast: bool, _opts: &RunOpts) -> io::Result<()> {
    let dur = SimTime::from_secs(if fast { 15 } else { 30 });
    let viz = |frame_bytes, fps, resv_kbps| Fig6Cfg {
        duration: dur,
        ..Fig6Cfg::new(frame_bytes, fps, resv_kbps)
    };

    // 1. Drop vs demote at an undersized reservation.
    let drop = Fig6Cfg {
        contention_bps: 100_000_000,
        ..viz(30_000, 10.0, 1600.0)
    };
    let demote = Fig6Cfg {
        policing_action: PolicingAction::Demote,
        ..drop
    };
    ratio_block(
        out,
        "# ablation 1: policing action at an undersized reservation\n\
         #   (2400 Kb/s attempted, 1600 Kb/s reserved, moderate contention)\n\
         action",
        [("drop", drop), ("demote", demote)],
    )?;

    // 3. End-system shaping vs policing only.
    let unshaped = viz(100_000, 1.0, 1000.0);
    let shaped = Fig6Cfg {
        shape_at_source: true,
        ..unshaped
    };
    ratio_block(
        out,
        "# ablation 3: end-system shaping of the 1 fps burst (800 Kb/s target, 1000 Kb/s reserved)\n\
         shaping",
        [("off", unshaped), ("on", shaped)],
    )?;

    // 4. Burstiness penalty vs minimum RTO: the Table 1 cell (800 Kb/s at
    // 1 fps: 100 KB frames, normal bucket) bisected per minimum RTO.
    writeln!(
        out,
        "# ablation 4: Table 1 cell (800 Kb/s, 1 fps, normal bucket) vs TCP minimum RTO\n\
         rto_min_ms,min_reservation_kbps"
    )?;
    for rto_ms in [200u64, 500, 1000] {
        let min = min_reservation(800.0, 4.0, |resv| {
            let mut cfg = Fig6Cfg::new(100_000, 1.0, resv);
            cfg.rto_min = SimDelta::from_millis(rto_ms);
            cfg.duration = SimTime::from_secs(if fast { 30 } else { 60 });
            viz_delivery_ratio(cfg) >= 0.95
        });
        writeln!(out, "{rto_ms},{min:.0}")?;
    }

    // 2b. Eager vs rendezvous threshold (a negative result).
    let eager = viz(100_000, 1.0, 1_100.0);
    let rendezvous = Fig6Cfg {
        eager_limit: 8 * 1024,
        ..eager
    };
    ratio_block(
        out,
        "# ablation 2b: MPI eager threshold for the 1 fps burst (800 Kb/s target, 1100 Kb/s reserved)\n\
         #   NEGATIVE RESULT: the protocol choice does not change the burst the\n\
         #   policer sees — rendezvous only prepends an RTS/CTS round trip; the\n\
         #   data still leaves as one TCP-paced burst. Shaping must happen below\n\
         #   MPI (the token bucket or the globus-io shaper), as the paper argues.\n\
         eager_limit",
        [("64k_eager", eager), ("8k_rendezvous", rendezvous)],
    )?;

    // 5. Framing overhead (the 1.06 factor).
    writeln!(
        out,
        "# ablation 5: reservation factor per app byte, 100 KB messages, by framing\n\
         framing,factor\n\
         ip_only,{:.3}",
        ip_overhead_factor(100 * 1024, DEFAULT_MSS)
    )?;
    for (label, f) in [
        ("none", Framing::None),
        ("ethernet", Framing::Ethernet),
        ("atm_aal5", Framing::AtmAal5),
    ] {
        let factor = wire_overhead_factor(100 * 1024, DEFAULT_MSS, f);
        writeln!(out, "{label},{factor:.3}")?;
    }
    writeln!(
        out,
        "# the paper's \"around 1.06 of the sending rate\" sits between the\n\
         # ethernet and ATM figures; ATM cell padding dominates the tax."
    )
}

/// One ablation block: the `header` lines ending in the label column's
/// name, then each labelled configuration's delivery ratio.
fn ratio_block(out: &mut dyn Write, header: &str, rows: [(&str, Fig6Cfg); 2]) -> io::Result<()> {
    writeln!(out, "{header},delivery_ratio")?;
    for (label, cfg) in rows {
        writeln!(out, "{label},{:.2}", viz_delivery_ratio(cfg))?;
    }
    Ok(())
}

/// Chaos experiment: the Figure-9 combined workload under a scripted
/// fault plan — injected GARA rejections, a trunk outage with a loss
/// burst on recovery, two reservation revocations, and a CPU-throttle
/// window — with the QoS agent's adaptation loop doing the recovering.
///
/// The printed series shows the staircase: premium grant after backoff
/// retries, a dip at the outage, a smaller premium step after
/// renegotiation, a best-effort trough while degraded, and full recovery
/// once capacity clears.
fn render_chaos(out: &mut dyn Write, fast: bool, opts: &RunOpts) -> io::Result<()> {
    let cfg = if fast {
        ChaosCfg::fast()
    } else {
        ChaosCfg::default()
    };
    let r = chaos(cfg, opts);
    let o = &r.out;
    print_series(
        out,
        "Chaos: 35 Mb/s visualization under fault injection with an adaptive QoS agent",
        "bandwidth_kbps",
        &o.series,
    )?;
    let (pre_lo, pre_hi) = cfg.pre_fault_window();
    let (deg_lo, deg_hi) = cfg.degraded_window();
    let (rec_lo, rec_hi) = cfg.recovery_window();
    writeln!(
        out,
        "# phases: pre-fault {:.0} | degraded {:.0} | recovered {:.0} Kb/s",
        phase_mean(&o.series, pre_lo, pre_hi),
        phase_mean(&o.series, deg_lo, deg_hi),
        phase_mean(&o.series, rec_lo, rec_hi),
    )?;
    writeln!(
        out,
        "# adaptation: {} requests, {} rejects, {} retries, {} grants, \
         {} revocations seen, {} renegotiations, {} degrades, {} probes, {} recoveries",
        o.requests,
        o.rejects,
        o.retries,
        o.grants,
        o.revocations_seen,
        o.renegotiations,
        o.degrades,
        o.probes,
        o.recoveries,
    )?;
    writeln!(
        out,
        "# faults: {} link-down drops, {} loss drops, {} corrupt drops, {} downs, {} ups; final state {:?}",
        o.faults.drops_link_down,
        o.faults.drops_loss,
        o.faults.drops_corrupt,
        o.faults.link_downs,
        o.faults.link_ups,
        o.final_state,
    )?;
    write_report("chaos", &r, true);
    Ok(())
}

/// Chaos-ranks experiment: rolling rank failures (HostCrash/HostRestart)
/// plus one correlated two-host outage, under the paper's best-effort
/// contention, while every premium streamer pair holds a GARA
/// reservation and a delivery deadline.
///
/// Crashed ranks respawn from their checkpoints and resume the stream;
/// the adaptive pair's reservation is released on crash and re-reserved
/// on restart. The printed scorecard shows per-pair frame progress and
/// SLO conformance — the acceptance bar is ≥90% of surviving premium
/// pairs meeting their SLO through the whole plan.
fn render_chaos_ranks(out: &mut dyn Write, fast: bool, opts: &RunOpts) -> io::Result<()> {
    let cfg = if fast {
        ChaosRanksCfg::fast()
    } else {
        ChaosRanksCfg::default()
    };
    let r = chaos_ranks(cfg, opts);
    let o = &r.out;
    let rows: Vec<Vec<String>> = o
        .scores
        .iter()
        .map(|s| {
            vec![
                s.pair.to_string(),
                s.frames.to_string(),
                s.delivered.to_string(),
                s.misses.to_string(),
                if s.slo_met { "met" } else { "MISSED" }.to_string(),
                if s.crashed { "yes" } else { "-" }.to_string(),
                format!("{}/{}", s.sender_epoch, s.receiver_epoch),
            ]
        })
        .collect();
    print_table(
        out,
        "Chaos ranks: premium streamer pairs under rolling rank failures",
        &[
            "pair",
            "frames",
            "delivered",
            "misses",
            "slo",
            "crashed",
            "epochs",
        ],
        &rows,
    )?;
    writeln!(
        out,
        "# slo: {}/{} surviving premium pairs met their deadline budget ({:.0}%)",
        o.pairs_meeting_slo,
        o.scores.len(),
        o.slo_fraction * 100.0,
    )?;
    writeln!(
        out,
        "# faults: {} host crashes, {} host restarts, {} host-down drops, {} dead deliveries",
        o.faults.host_crashes,
        o.faults.host_restarts,
        o.faults.drops_host_down,
        o.faults.dead_deliveries,
    )?;
    writeln!(
        out,
        "# recovery: {} checkpoints, {} failed requests, {} unexpected drops, \
         unexpected depth {:.0}; agent {} crash releases, {} restart re-reserves, {} grants",
        o.checkpoints,
        o.reqs_failed,
        o.unexpected_dropped,
        o.unexpected_depth,
        o.crash_releases,
        o.restart_rereserves,
        o.grants,
    )?;
    write_report("chaos_ranks", &r, true);
    Ok(())
}

/// PHB conformance under overload: one EF, one AF, and one best-effort
/// flow share a WFQ/WRED trunk offered ~135% of its capacity.
///
/// The printed table is the DiffServ contract, one row per class: the
/// reserved EF flow delivers essentially everything, the AF flow lands
/// between its committed and offered rates (in-profile low-precedence
/// traffic survives while the policer-escalated excess takes the WRED
/// drops), and best-effort absorbs the remaining starvation.
fn render_af_conformance(out: &mut dyn Write, fast: bool, opts: &RunOpts) -> io::Result<()> {
    let cfg = if fast {
        AfConformanceCfg::fast()
    } else {
        AfConformanceCfg::default()
    };
    let r = af_conformance(cfg, opts);
    let rows: Vec<Vec<String>> = r
        .out
        .rows
        .iter()
        .map(|row| {
            vec![
                row.class.to_string(),
                format!("{:.1}", row.offered_bps as f64 / 1e6),
                format!("{:.1}", row.delivered_bps as f64 / 1e6),
                format!("{:.1}%", row.delivery_ratio() * 100.0),
            ]
        })
        .collect();
    print_table(
        out,
        "PHB conformance: EF vs AF vs BE on an overloaded WFQ/WRED trunk",
        &["class", "offered_mbps", "delivered_mbps", "delivery"],
        &rows,
    )?;
    writeln!(
        out,
        "# drops: {} tail, {} RED-early ({} on AF); {} events",
        r.out.tail_drops, r.out.red_early_drops, r.out.early_af_drops, r.events
    )?;
    write_report("af_conformance", &r, true);
    Ok(())
}

/// Queue-discipline ablation: the Figure-1 premium workload (paced TCP
/// above an undersized reservation, under full contention) re-run across
/// the SP/WFQ/DRR × drop-tail/RED matrix, scored by the SLO layer.
///
/// Only `GarnetCfg::core_queue` varies between cells, so the goodput and
/// deadline-miss columns isolate what the discipline itself buys: how well
/// each scheduler protects the premium class, and how much RED's early
/// dropping shortens the best-effort queues the ACK path rides through.
fn render_qdisc_ablation(out: &mut dyn Write, fast: bool, opts: &RunOpts) -> io::Result<()> {
    let cfg = Fig1Cfg {
        duration: SimTime::from_secs(if fast { 5 } else { 20 }),
        ..Fig1Cfg::default()
    };
    let r = qdisc_ablation(cfg, opts);
    let rows: Vec<Vec<String>> = r
        .out
        .iter()
        .map(|c| {
            let (sched, dropper) = qdisc_cell_labels(c.sched, c.red);
            vec![
                sched.to_string(),
                dropper.to_string(),
                format!("{:.0}", c.premium_kbps),
                c.slo_misses.to_string(),
                c.tail_drops.to_string(),
                c.red_early_drops.to_string(),
            ]
        })
        .collect();
    print_table(
        out,
        "Discipline ablation: premium TCP goodput and SLO misses per scheduler × dropper",
        &[
            "sched",
            "dropper",
            "premium_kbps",
            "slo_misses",
            "tail_drops",
            "red_early",
        ],
        &rows,
    )?;
    write_report("qdisc_ablation", &r, true);
    Ok(())
}

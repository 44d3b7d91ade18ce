//! Transport-level benchmarks: wall-clock cost of simulating TCP bulk
//! transfers and MPI exchanges (events per second of the whole stack).

use criterion::{criterion_group, criterion_main, Criterion};
use mpichgq_apps::PingPong;
use mpichgq_bench::bulk::BulkTx;
use mpichgq_mpi::JobBuilder;
use mpichgq_netsim::topology::Dumbbell;
use mpichgq_sim::{SimDelta, SimTime};
use mpichgq_tcp::{App, Ctx, DataMode, Sim, SockId, TcpCfg};
use std::cell::RefCell;
use std::hint::black_box;
use std::rc::Rc;

/// Counts what it drains, so the bench can check the transfer finished.
struct BulkRx {
    got: Rc<RefCell<u64>>,
}
impl App for BulkRx {
    fn on_start(&mut self, ctx: &mut Ctx) {
        ctx.tcp_listen(7000, TcpCfg::default(), DataMode::Counted);
    }
    fn on_readable(&mut self, s: SockId, ctx: &mut Ctx) {
        *self.got.borrow_mut() += ctx.recv(s, u64::MAX);
    }
}

fn bench_tcp_bulk(c: &mut Criterion) {
    c.bench_function("tcp/bulk_4mb_over_dumbbell", |b| {
        b.iter(|| {
            let d = Dumbbell::build(50_000_000, SimDelta::from_millis(2), 1);
            let (src, dst) = (d.src, d.dst);
            let mut sim = Sim::new(d.net);
            let got = Rc::new(RefCell::new(0u64));
            sim.spawn_app(dst, Box::new(BulkRx { got: got.clone() }));
            sim.spawn_app(src, Box::new(BulkTx::new(dst, 7000, 4_000_000)));
            sim.run_until(SimTime::from_secs(10));
            let delivered = *got.borrow();
            assert_eq!(delivered, 4_000_000);
            black_box(sim.net.events_processed())
        })
    });
}

fn bench_mpi_pingpong(c: &mut Criterion) {
    c.bench_function("mpi/pingpong_4s_10kb", |b| {
        b.iter(|| {
            let d = Dumbbell::build(50_000_000, SimDelta::from_millis(1), 2);
            let (h0, h1) = (d.src, d.dst);
            let mut sim = Sim::new(d.net);
            let (p0, p1, result) = PingPong::pair(
                10_000,
                SimTime::from_millis(500),
                SimTime::from_secs(4),
                None,
            );
            let _job = JobBuilder::new()
                .rank(h0, Box::new(p0))
                .rank(h1, Box::new(p1))
                .launch(&mut sim);
            sim.run_until(SimTime::from_secs(4));
            let rounds = result.borrow().rounds;
            assert!(rounds > 100);
            black_box(rounds)
        })
    });
}

criterion_group!(
    name = benches;
    config = Criterion::default().sample_size(10);
    targets = bench_tcp_bulk, bench_mpi_pingpong
);
criterion_main!(benches);

//! Outside-in layer timing: wrappers around the calls the simulator makes
//! into the layers above it. Nothing here reaches into a crate's
//! internals; each wrapper forwards to the wrapped public object and
//! times the call.
//!
//! * [`Timed`] wraps the `NetHandler` passed to `Net::run_until` /
//!   `run_partitioned`, one timer per upcall kind. Everything inside
//!   `run_until` that is not an upcall is netsim's own time.
//! * [`TimedProgram`] wraps one rank's `MpiProgram`; its polls run nested
//!   inside whichever upcall woke the rank.

use mpichgq_dsrt::ProcId;
use mpichgq_mpi::{Mpi, MpiProgram, Poll};
use mpichgq_netsim::{Net, NetHandler, NodeId, Packet};
use mpichgq_sim::SimTime;
use mpichgq_tcp::Stack;
use std::cell::Cell;
use std::ops::DerefMut;
use std::rc::Rc;
use std::time::Instant;

/// Host time spent in one kind of call, and how many calls.
#[derive(Debug, Clone, Copy, Default)]
pub struct Span {
    pub ns: u64,
    pub n: u64,
}

impl Span {
    pub fn add(&mut self, since: Instant) {
        self.ns += since.elapsed().as_nanos() as u64;
        self.n += 1;
    }

    pub fn secs(&self) -> f64 {
        self.ns as f64 * 1e-9
    }
}

/// Per-upcall-kind host time of one handler.
#[derive(Debug, Clone, Copy, Default)]
pub struct Upcalls {
    pub deliver: Span,
    pub host_timer: Span,
    pub cpu_done: Span,
    pub control: Span,
    pub timeline_sample: Span,
    /// Host crash/restart notifications (none of the workloads fault).
    pub faults: Span,
}

impl Upcalls {
    pub fn total_ns(&self) -> u64 {
        self.deliver.ns
            + self.host_timer.ns
            + self.cpu_done.ns
            + self.control.ns
            + self.timeline_sample.ns
            + self.faults.ns
    }
}

/// A `NetHandler` that forwards every upcall to the wrapped `Stack`.
/// With `trace` set it times each upcall; without, it only forwards.
pub struct Timed<S> {
    pub inner: S,
    pub trace: bool,
    pub up: Upcalls,
}

impl<S: DerefMut<Target = Stack>> Timed<S> {
    pub fn new(inner: S, trace: bool) -> Timed<S> {
        Timed {
            inner,
            trace,
            up: Upcalls::default(),
        }
    }
}

macro_rules! forward {
    ($self:ident, $span:ident, $call:expr) => {{
        if $self.trace {
            let t = Instant::now();
            $call;
            $self.up.$span.add(t);
        } else {
            $call;
        }
    }};
}

impl<S: DerefMut<Target = Stack>> NetHandler for Timed<S> {
    fn deliver(&mut self, net: &mut Net, host: NodeId, pkt: Packet) {
        forward!(self, deliver, self.inner.deliver(net, host, pkt))
    }

    fn host_timer(&mut self, net: &mut Net, host: NodeId, token: u64) {
        forward!(self, host_timer, self.inner.host_timer(net, host, token))
    }

    fn cpu_done(&mut self, net: &mut Net, host: NodeId, proc: ProcId) {
        forward!(self, cpu_done, self.inner.cpu_done(net, host, proc))
    }

    fn control(&mut self, net: &mut Net, token: u64) {
        forward!(self, control, self.inner.control(net, token))
    }

    fn timeline_sample(&mut self, net: &mut Net, at: SimTime) {
        forward!(self, timeline_sample, self.inner.timeline_sample(net, at))
    }

    fn host_crashed(&mut self, net: &mut Net, host: NodeId) {
        forward!(self, faults, self.inner.host_crashed(net, host))
    }

    fn host_restarted(&mut self, net: &mut Net, host: NodeId) {
        forward!(self, faults, self.inner.host_restarted(net, host))
    }
}

/// Shared accumulator for every [`TimedProgram`] of one job.
pub type PollClock = Rc<Cell<Span>>;

/// One rank's program, with its `poll` calls timed into a shared clock.
pub struct TimedProgram {
    pub inner: Box<dyn MpiProgram>,
    pub clock: PollClock,
}

impl MpiProgram for TimedProgram {
    fn poll(&mut self, mpi: &mut Mpi) -> Poll {
        let t = Instant::now();
        let r = self.inner.poll(mpi);
        let mut s = self.clock.get();
        s.add(t);
        self.clock.set(s);
        r
    }
}

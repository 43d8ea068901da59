// The layer ladder: engine event -> fiber switch -> timed reference ->
// Chrysalis primitive -> runtime op (US task, SMP message, stream write) ->
// Bridge request -> serve read.  Each rung times one layer's public call in
// isolation on a fresh machine, on both clocks: host ns per op (median over
// repeats) and simulated us per op (deterministic).  The timed window opens
// and closes inside the simulated program, so machine construction and
// process start-up stay outside it.

#include <algorithm>

#include "bridge/bridge.hpp"
#include "chrysalis/kernel.hpp"
#include "net/mesh.hpp"
#include "serve/serve.hpp"
#include "sim/engine.hpp"
#include "sim/fiber.hpp"
#include "smp/family.hpp"
#include "us/uniform_system.hpp"
#include "workloads.hpp"

namespace perfbench {

using namespace bfly;

namespace {

/// The timed window of one rung repeat, with the substrate work (engine
/// events, fiber resumes, fast-path charges) done inside it.
struct Window {
  Clock::time_point h0{}, h1{};
  sim::Time s0 = 0, s1 = 0;
  sim::HostPerf perf;
  void open(const sim::Machine& m) {
    perf = m.host_perf();
    s0 = m.now();
    h0 = Clock::now();
  }
  void close(const sim::Machine& m) {
    h1 = Clock::now();
    s1 = m.now();
    const sim::HostPerf p = m.host_perf();
    perf.events_dispatched = p.events_dispatched - perf.events_dispatched;
    perf.fiber_resumes = p.fiber_resumes - perf.fiber_resumes;
    perf.fastpath_charges = p.fastpath_charges - perf.fastpath_charges;
  }
};

Window rung_event(std::uint64_t ops) {
  sim::Engine e;
  std::uint64_t sink = 0;
  for (std::uint64_t i = 0; i < ops; ++i)
    e.post_at(static_cast<sim::Time>(i), [&sink, i] { sink += i; });
  Window w;
  w.h0 = Clock::now();
  e.run();
  w.h1 = Clock::now();
  return w;
}

Window rung_switch_pair(std::uint64_t ops) {
  sim::Fiber f(
      [] {
        for (;;) sim::Fiber::yield_to_engine();
      },
      64 * 1024);
  Window w;
  w.h0 = Clock::now();
  for (std::uint64_t i = 0; i < ops; ++i) f.resume();  // resume + yield
  w.h1 = Clock::now();
  return w;
}

/// One fiber issuing remote word reads on the 128-node machine; with the
/// fast path off every reference yields to the engine.
Window rung_ref(std::uint64_t ops, bool fastpath) {
  sim::MachineConfig cfg = sim::butterfly1(128);
  cfg.host_fastpath = fastpath;
  sim::Machine m(cfg);
  const sim::PhysAddr a = m.alloc(64, 64);
  Window w;
  m.spawn(0, [&] {
    w.open(m);
    for (std::uint64_t i = 0; i < ops; ++i) (void)m.read<std::uint32_t>(a);
    w.close(m);
  });
  m.run();
  return w;
}

/// Two processes on different nodes bouncing a datum through two dual
/// queues: one op is one round trip.
Window rung_dq_roundtrip(std::uint64_t ops) {
  sim::Machine m(sim::butterfly1(4));
  chrys::Kernel k(m);
  chrys::Oid q1 = chrys::kNoObject, q2 = chrys::kNoObject;
  Window w;
  k.create_process(0, [&] {
    q1 = k.make_dual_queue();
    for (std::uint64_t i = 0; i < ops; ++i)
      k.dq_enqueue(q2, k.dq_dequeue(q1));
  });
  k.create_process(1, [&] {
    q2 = k.make_dual_queue();
    k.delay(sim::kMillisecond);  // let both queues exist
    w.open(m);
    for (std::uint64_t i = 0; i < ops; ++i) {
      k.dq_enqueue(q1, static_cast<std::uint32_t>(i));
      (void)k.dq_dequeue(q2);
    }
    w.close(m);
  });
  m.run();
  return w;
}

/// Empty processes created round-robin on the 15 nodes other than the
/// creator's, so each exits (and frees its SARs) before its node's turn
/// comes round again.
Window rung_create_process(std::uint64_t ops) {
  sim::Machine m(sim::butterfly1(16));
  chrys::Kernel k(m);
  Window w;
  k.create_process(0, [&] {
    w.open(m);
    for (std::uint64_t i = 0; i < ops; ++i)
      k.create_process(static_cast<sim::NodeId>(1 + i % 15), [] {});
    w.close(m);
  });
  m.run();
  return w;
}

/// Empty Uniform System tasks spread over 16 processors.
Window rung_us_task(std::uint64_t ops) {
  sim::Machine m(sim::butterfly1(16));
  chrys::Kernel k(m);
  us::UniformSystem us(k);
  Window w;
  us.run_main([&] {
    w.open(m);
    us.for_all(0, static_cast<std::uint32_t>(ops), [](us::TaskCtx&) {});
    w.close(m);
  });
  return w;
}

/// SMP ping-pong between two family members: one op is one message.
Window rung_smp_msg(std::uint64_t ops) {
  sim::Machine m(sim::butterfly1(4));
  chrys::Kernel k(m);
  Window w;
  k.create_process(0, [&] {
    smp::Family fam(k, smp::Topology::complete(2), [&](smp::Member& me) {
      const std::uint32_t peer = 1 - me.index();
      if (me.index() == 0) w.open(m);
      for (std::uint64_t i = 0; i < ops / 2; ++i) {
        if (me.index() == 0) {
          me.send_value(peer, 1, i);
          (void)me.receive();
        } else {
          const smp::Message msg = me.receive();
          me.send_value(peer, 1, msg.as<std::uint64_t>());
        }
      }
      if (me.index() == 0) w.close(m);
    });
    fam.join();
  });
  m.run();
  return w;
}

/// A 1x2 mesh: the west element writes 8-byte values east, the east
/// element reads them; the window closes when the last value arrives.
Window rung_stream_write(std::uint64_t ops) {
  sim::Machine m(sim::butterfly1(4));
  chrys::Kernel k(m);
  Window w;
  k.create_process(3, [&] {
    net::Mesh mesh(k, 1, 2, [&](net::Element& e) {
      if (e.col() == 0) {
        w.open(m);
        for (std::uint64_t i = 0; i < ops; ++i)
          e.out(net::Direction::kEast)->write_value(i);
      } else {
        for (std::uint64_t i = 0; i < ops; ++i)
          (void)e.in(net::Direction::kWest)->read_value<std::uint64_t>();
        w.close(m);
      }
    });
    mesh.join();
  });
  m.run();
  return w;
}

bridge::DiskParams fast_disk() {
  bridge::DiskParams d;
  d.seek_ns = 2 * sim::kMillisecond;
  d.block_transfer_ns = 1 * sim::kMillisecond;
  return d;
}

/// One client reading blocks of an 8-server Bridge file in turn.
Window rung_bridge_request(std::uint64_t ops) {
  sim::Machine m(sim::butterfly1(16));
  chrys::Kernel k(m);
  Window w;
  k.create_process(15, [&] {
    bridge::BridgeFs fs(k, 8, fast_disk());
    const bridge::FileId f = fs.create("ladder");
    std::vector<std::uint8_t> blk(bridge::kBlockSize, 7);
    for (std::uint32_t b = 0; b < 16; ++b) fs.write_block(f, b, blk.data());
    w.open(m);
    for (std::uint64_t i = 0; i < ops; ++i)
      fs.read_block(f, static_cast<std::uint32_t>(i % 16), blk.data());
    w.close(m);
    fs.shutdown();
  });
  m.run();
  return w;
}

/// One client reading through 3-way replicated serving (no membership).
Window rung_serve_read(std::uint64_t ops) {
  sim::Machine m(sim::butterfly1(16));
  chrys::Kernel k(m);
  Window w;
  k.create_process(15, [&] {
    bridge::BridgeFs fs(k, 8, fast_disk());
    {
      serve::ServeConfig sc;
      sc.hedge_floor = 5 * sim::kMillisecond;
      serve::ReplicatedFs rfs(k, fs, nullptr, sc);
      const bridge::FileId f = rfs.open("ladder", 16);
      std::vector<std::uint8_t> blk(bridge::kBlockSize, 7);
      for (std::uint32_t b = 0; b < 16; ++b) rfs.write(f, b, blk.data());
      w.open(m);
      for (std::uint64_t i = 0; i < ops; ++i)
        (void)rfs.read(f, static_cast<std::uint32_t>(i % 16), blk.data());
      w.close(m);
    }
    fs.shutdown();
  });
  m.run();
  return w;
}

struct RungDef {
  const char* name;
  std::uint64_t ops;
  bool has_sim;
  Window (*fn)(std::uint64_t);
};

Window rung_ref_fast(std::uint64_t ops) { return rung_ref(ops, true); }
Window rung_ref_slow(std::uint64_t ops) { return rung_ref(ops, false); }

// Op counts size each repeat at roughly 20-60 ms of host time.
const RungDef kRungs[] = {
    {"sim.ladder.event", 400000, false, rung_event},
    {"sim.ladder.switch_pair", 200000, false, rung_switch_pair},
    {"sim.ladder.ref_fast", 2000000, true, rung_ref_fast},
    {"sim.ladder.ref_slow", 100000, true, rung_ref_slow},
    {"chrysalis.ladder.dq_roundtrip", 20000, true, rung_dq_roundtrip},
    {"chrysalis.ladder.create_process", 4000, true, rung_create_process},
    {"us.ladder.task", 20000, true, rung_us_task},
    {"smp.ladder.msg", 20000, true, rung_smp_msg},
    {"net.ladder.stream_write", 20000, true, rung_stream_write},
    {"bridge.ladder.request", 4000, true, rung_bridge_request},
    {"serve.ladder.read", 4000, true, rung_serve_read},
};

}  // namespace

std::vector<Rung> run_ladder(int repeats, double scale) {
  std::vector<Rung> out;
  for (const RungDef& d : kRungs) {
    Rung r;
    r.name = d.name;
    r.has_sim = d.has_sim;
    r.ops = std::max<std::uint64_t>(
        2, static_cast<std::uint64_t>(static_cast<double>(d.ops) * scale));
    std::vector<double> ns;
    for (int i = 0; i < repeats; ++i) {
      const Window w = d.fn(r.ops);
      ns.push_back(host_s(w.h0, w.h1) * 1e9 / static_cast<double>(r.ops));
      r.sim_us = static_cast<double>(w.s1 - w.s0) / sim::kMicrosecond /
                 static_cast<double>(r.ops);
      r.perf = w.perf;
    }
    r.host_ns = median(ns);
    out.push_back(r);
  }
  return out;
}

}  // namespace perfbench

// serve-long: long closed-loop serving sessions.
//
// Four shm sessions of 2048 frames each, chain:4 with durable WAL storage,
// 4-frame warm-up, 3 seeded environment changes per session — the way
// `arfsctl serve` builds and drives them: every client polls after every
// pump() round. Every streamed frame record costs one System::digest()
// (via make_frame_record), whose cost grows with the session's trace.
//
// Checks: every session is accounted() and lossless, and its streamed
// digest equals the pooled run_mission_sweep oracle's digest for the same
// sweep index. The traced replay re-derives the digests a third way
// (SystemPool lease + make_frame_record, one frame at a time) and pushes
// every record through a ring of the sessions' geometry.
#include <memory>
#include <sstream>
#include <vector>

#include "arfs/serve/client.hpp"
#include "arfs/serve/record.hpp"
#include "arfs/serve/server.hpp"
#include "arfs/serve/transport.hpp"
#include "arfs/sim/batch.hpp"
#include "arfs/support/sweep.hpp"
#include "missions.hpp"
#include "workloads.hpp"

namespace perfbench {

using namespace arfs;

namespace {

constexpr std::size_t kSessions = 4;
// A 4096-frame pass takes ~5 s: too few passes in a 30 s run to average
// over a shared host's fast and slow states. At 2048 frames the O(history)
// digest still grows ~5x over a session.
constexpr Cycle kFrames = 2048;
constexpr Cycle kWarmup = 4;
constexpr std::size_t kChanges = 3;
constexpr std::size_t kSetupRepsPerPass = 5;

serve::ServeOptions serve_options(std::uint64_t seed) {
  serve::ServeOptions options;
  options.max_sessions = kSessions;
  options.frame_budget = kFrames;
  options.warmup_frames = kWarmup;
  options.base_seed = seed;
  // arfsctl's ring geometry. The closed loop drains every client after
  // each round, so at most a couple of records are ever in flight.
  options.ring_slot_count = 64;
  options.ring_slot_bytes = 128;
  return options;
}

struct Session {
  std::uint64_t digest = 0;
  bool accounted = false;
  bool lossless = false;
  std::uint64_t frames = 0;
  std::uint64_t skipped = 0;
  std::uint64_t gap_records = 0;
};

struct Pass {
  double setup_s = 0;
  double work_s = 0;
  std::uint64_t frames = 0;  ///< Frame records delivered, all sessions.
  std::uint64_t pool_leases = 0;
  std::vector<Session> sessions;
};

struct Inputs {
  serve::ServeOptions options;
  support::MissionFactory factory = chain_mission();
  support::PlanFactory plans;
};

/// One serving pass: server construction and every open_session (the set-up
/// the caller times), then — unless `setup_only` — the closed loop. Frame
/// arrivals feed `gaps` (one lane per client) when given.
Pass serve_pass(const Inputs& in, bool setup_only, GapRecorder* gaps,
                Tracer& tracer) {
  Pass pass;
  const Clock::time_point t0 = Clock::now();
  serve::SimServer server(in.factory, in.plans, in.options);
  std::vector<std::unique_ptr<serve::SessionClient>> clients;
  std::vector<std::uint64_t> ids;
  for (std::size_t i = 0; i < kSessions; ++i) {
    serve::SimServer::Opened opened =
        server.open_session(serve::TransportKind::kShm);
    ids.push_back(opened.id);
    serve::SessionClient::LatencySink sink;
    if (gaps != nullptr) {
      sink = [gaps, i](std::uint64_t) { gaps->mark(i, now_ns()); };
    }
    clients.push_back(std::make_unique<serve::SessionClient>(
        std::move(opened.source), std::move(sink)));
  }
  pass.setup_s = seconds_since(t0);
  if (setup_only) return pass;

  const Clock::time_point t1 = Clock::now();
  while (tracer.call("serve.pump", 0, [&] { return server.pump(); }) > 0) {
    for (std::size_t i = 0; i < kSessions; ++i) {
      tracer.call("serve.client_poll", i + 1,
                  [&] { return clients[i]->poll(); });
    }
  }
  // Deliver the queued tails (end records) and let every client see them.
  for (int round = 0; round < 1'000'000; ++round) {
    bool all_done = true;
    for (auto& client : clients) {
      if (!client->done()) {
        (void)client->poll();
        all_done = all_done && client->done();
      }
    }
    if (server.drain() && all_done) break;
  }
  pass.work_s = seconds_since(t1);

  for (std::size_t i = 0; i < kSessions; ++i) {
    const serve::ClientReport& seen = clients[i]->report();
    const serve::SessionReport& produced = server.report(ids[i]);
    Session s;
    s.digest = seen.digest;
    s.accounted = seen.accounted();
    s.lossless = seen.digest_matches();
    s.frames = seen.frames;
    s.skipped = produced.frames_skipped;
    s.gap_records = produced.gap_records;
    pass.frames += seen.frames;
    pass.sessions.push_back(s);
  }
  pass.pool_leases = server.pool_stats().leases;
  return pass;
}

/// The in-process oracle: a pooled run_mission_sweep folding the same frame
/// records the server streams; element i is session i's digest.
std::vector<std::uint64_t> oracle_digests(const Inputs& in,
                                          std::size_t threads) {
  support::SystemPool pool(in.factory, kWarmup);
  sim::FleetOptions fleet_options;
  fleet_options.threads = threads;
  sim::FleetRunner fleet(fleet_options);
  return support::run_mission_sweep<std::uint64_t>(
      kSessions, in.options.base_seed,
      std::function<std::uint64_t(const support::MissionJob&,
                                  support::PooledMission&)>(
          [&](const support::MissionJob& job,
              support::PooledMission& mission) {
            core::System& system = mission.system();
            system.set_fault_plan(in.plans(job.seed));
            std::uint64_t digest = serve::kDigestBasis;
            for (Cycle f = 1; f <= kFrames; ++f) {
              system.run_frame();
              serve::fold_record(digest,
                                 serve::make_frame_record(system, kWarmup + f));
            }
            return digest;
          }),
      pool, fleet);
}

/// Sessions of `pass` that fail the delivery contract or miss `oracle`.
std::uint64_t failed_sessions(const Pass& pass,
                              const std::vector<std::uint64_t>& oracle) {
  std::uint64_t failed = 0;
  for (std::size_t i = 0; i < kSessions; ++i) {
    const Session& s = pass.sessions[i];
    if (!s.accounted || !s.lossless || s.digest != oracle[i]) ++failed;
  }
  return failed;
}

struct Replay {
  Counters counters;
  std::vector<std::uint64_t> digests;
  bool ring_ok = true;
};

/// Serial replay of every session through a SystemPool lease — the
/// oracle's own path, one call at a time. With `records`, each frame also
/// builds its record and round-trips it through a ring of the sessions'
/// geometry (ShmTransport::try_send, RingSource::poll).
Replay replay_sessions(const Inputs& in, bool records, Tracer& tracer) {
  Replay out;
  const support::MissionFactory timed_factory = [&] {
    return tracer.call("support.mission_build", 0, in.factory);
  };
  support::SystemPool pool(timed_factory, kWarmup);
  support::SystemPool::Lease lease = pool.lease();
  support::PooledMission& mission = lease.mission();
  core::System& system = mission.system();
  for (std::size_t i = 0; i < kSessions; ++i) {
    const std::uint64_t unit = i + 1;
    const std::uint64_t seed = sim::job_seed(in.options.base_seed, i);
    tracer.begin_unit("session", unit);
    tracer.call("support.pool_reset", unit, [&] { mission.reset(); });
    system.set_fault_plan(
        tracer.call("support.plan_build", unit, [&] { return in.plans(seed); }));
    const Counters before = Counters::read(system);

    serve::RingOptions ring_options;
    ring_options.slot_count = in.options.ring_slot_count;
    ring_options.slot_bytes = in.options.ring_slot_bytes;
    std::shared_ptr<serve::FrameRing> ring =
        serve::FrameRing::create(ring_options);
    serve::ShmTransport sender(ring);
    serve::RingSource receiver(ring);

    std::uint64_t digest = serve::kDigestBasis;
    for (Cycle f = 1; f <= kFrames; ++f) {
      tracer.call("core.run_frame", unit, [&] { system.run_frame(); });
      if (!records) continue;
      const serve::FrameRecord record =
          tracer.call("serve.make_frame_record", unit, [&] {
            return serve::make_frame_record(system, kWarmup + f);
          });
      serve::fold_record(digest, record);
      const bool sent = tracer.call("serve.ring_send", unit, [&] {
        return sender.try_send(record, now_ns());
      });
      serve::FrameSource::Item item;
      const serve::FrameSource::Poll polled = tracer.call(
          "serve.ring_poll", unit, [&] { return receiver.poll(item); });
      out.ring_ok = out.ring_ok && sent &&
                    polled == serve::FrameSource::Poll::kRecord &&
                    item.record.frame == record.frame &&
                    item.record.data0 == record.data0 &&
                    item.record.data1 == record.data1 &&
                    item.record.data2 == record.data2;
    }
    out.counters += Counters::read(system).since(before);
    if (records) {
      (void)tracer.call("core.digest", unit, [&] { return system.digest(); });
    }
    out.digests.push_back(digest);
    tracer.end_unit();
  }
  return out;
}

PassCounts pass_counts(const Pass& pass) {
  PassCounts counts;
  for (const Session& s : pass.sessions) {
    counts.simulated_frames += s.frames + s.skipped;
    counts.frames_skipped += s.skipped;
    counts.gap_records += s.gap_records;
  }
  counts.pool_resets = pass.pool_leases;
  return counts;
}

void self_check(const std::vector<Pass>& passes,
                const std::vector<std::uint64_t>& oracle, Result& result) {
  std::vector<std::uint64_t> corrupted = oracle;
  corrupted[0] ^= 1;
  const bool caught = failed_sessions(passes.front(), corrupted) > 0;
  result.note(std::string("self-check, corrupted oracle digest: ") +
              (caught ? "caught" : "MISSED"));
  result.check(caught, "a corrupted oracle digest went unnoticed", 0);
}

}  // namespace

Result run_serve_long(const Options& options) {
  Result result;
  Inputs in;
  in.options = serve_options(options.seed);
  in.plans = env_plans(false, kChanges, kWarmup, kFrames);
  Tracer off(false);

  if (!options.trace) {
    GapRecorder gaps;
    std::vector<double> setup_s;
    const std::vector<Pass> passes = measure(
        options.seconds, kSetupRepsPerPass,
        [&](bool measured) {
          gaps.restart();
          return serve_pass(in, false, measured ? &gaps : nullptr, off);
        },
        [&] { return serve_pass(in, true, nullptr, off).setup_s; }, setup_s);
    std::vector<double> frames_per_s;
    for (const Pass& pass : passes) {
      setup_s.push_back(pass.setup_s);
      frames_per_s.push_back(static_cast<double>(pass.frames) / pass.work_s);
    }
    const double peak = peak_rss_mib();

    const std::vector<std::uint64_t> oracle =
        oracle_digests(in, options.threads);
    for (const Pass& pass : passes) {
      const std::uint64_t failed = failed_sessions(pass, oracle);
      result.check(failed == 0,
                   std::to_string(failed) +
                       " sessions failed the delivery audit or the oracle",
                   failed);
      result.attempted += kSessions;
    }
    self_check(passes, oracle, result);

    set_end_to_end(result, setup_s, peak, frames_per_s, gaps);
    std::ostringstream note;
    note << passes.size() << " passes of " << kSessions << " sessions x "
         << kFrames << " frames; frames/s per pass:";
    for (const double v : frames_per_s) note << " " << v;
    result.note(note.str());
    result.note("frame " + gaps.describe());
    pass_counts(passes.front()).report(result);
    for (const Pass& pass : passes) {
      result.check(pass_counts(pass) == pass_counts(passes.front()),
                   "pass counts drifted between passes of one seed", 0);
    }
    report_counters(replay_sessions(in, false, off).counters, result);
    return result;
  }

  // Traced run: the serial layer replay (which also warms the machine up),
  // then the same pass untraced and traced; their difference is the
  // tracing overhead.
  Tracer tracer(true);
  const Replay replay = replay_sessions(in, true, tracer);
  const Pass plain = serve_pass(in, false, nullptr, off);
  const Pass traced = serve_pass(in, false, nullptr, tracer);
  const std::vector<std::uint64_t> oracle =
      oracle_digests(in, options.threads);
  for (const Pass* pass : {&plain, &traced}) {
    const std::uint64_t failed = failed_sessions(*pass, oracle);
    result.check(failed == 0,
                 std::to_string(failed) +
                     " sessions failed the delivery audit or the oracle",
                 failed);
    result.attempted += kSessions;
  }
  result.check(replay.digests == oracle,
               "replayed session digests differ from the oracle", 0);
  result.check(replay.ring_ok, "a ring round-trip lost or changed a record",
               0);

  add_layer_timings(tracer, result);
  const std::vector<double> record_us =
      tracer.durations_us("serve.make_frame_record");
  std::vector<double> growths;
  for (std::size_t i = 0; i < kSessions; ++i) {
    const auto first = record_us.begin() + static_cast<long>(i * kFrames);
    growths.push_back(growth(std::vector<double>(first, first + kFrames)));
  }
  // The serving loop is single-threaded: scaling is 1 by definition.
  add_run_layers(result, median(growths), 1.0, 1,
                 traced.work_s / plain.work_s - 1.0);
  pass_counts(plain).report(result);
  report_counters(replay.counters, result);
  if (!options.spans_path.empty()) tracer.write(options.spans_path);
  return result;
}

}  // namespace perfbench

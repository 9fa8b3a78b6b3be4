// service_remote: the bursty_hotspot scenario stretched to 400 time units and 400 blocks,
// driven by one ServiceClient over a Unix socket against a forked NetServiceFront +
// GrantService daemon with its default worker fleet. A closed loop: one tenant, one
// connection, one request in flight — one Submit per distinct arrival instant and one
// RunCycle per cycle instant, in RunRemoteWorkload's order. The engine is a small share of a
// cycle's round trip; the socket edge, the shm rings, the codecs and the poll sleeps are
// most of it.
//
// The traced run adds two in-process legs on the same inputs — GrantService (the fleet
// without the socket) and OnlineScheduler (the engine alone) — so the edge / fleet / engine
// split is a difference of measured medians.

#include <fcntl.h>
#include <unistd.h>

#include <cerrno>
#include <csignal>
#include <cstdio>
#include <filesystem>
#include <functional>
#include <limits>
#include <memory>
#include <vector>

#include "perfbench/online_leg.h"
#include "perfbench/perfbench.h"
#include "perfbench/replay.h"
#include "src/common/subprocess.h"
#include "src/service/client.h"
#include "src/service/grant_service.h"
#include "src/service/net_transport.h"
#include "src/workload/scenario.h"

namespace perfbench {

namespace {

constexpr double kTaskSpan = 400.0;
constexpr size_t kBlocks = 400;
// Each run replays kInstances scenario instances, seeded seed + i * kInstanceSeedStride
// (instance 0 is the scenario at the run's own seed). One instance grants a few dozen
// tasks, so a single one would make tasks_granted and the cycle mix swing with the seed.
constexpr size_t kInstances = 16;
constexpr uint64_t kInstanceSeedStride = 1'000'003;
constexpr size_t kWarmupReplays = 3;
// Idle polls after which an orphaned daemon (its client gone) stops serving; at the front's
// default poll sleep this is over ten seconds of silence.
constexpr uint64_t kServeIdleBudget = 50'000;

// What the daemon reports back over a pipe when it stops serving.
struct DaemonReport {
  uint64_t budget_violations = 0;
  uint64_t cycles = 0;
  uint64_t protocol_rejects = 0;
  uint64_t budget_disconnects = 0;
  uint64_t recoveries = 0;
  uint64_t admission_rejects = 0;
  uint64_t messages = 0;  // Sent + received by the daemon over the worker rings.
  uint64_t bytes = 0;
  uint64_t score_rounds = 0;
  uint64_t ring_stalls = 0;
};

dpack::GrantServiceConfig ServiceConfigFor(const dpack::SimConfig& sim) {
  dpack::GrantServiceConfig config;  // Default ServiceConfig: the default worker fleet.
  config.admission_queue_capacity = sim.admission_queue_capacity;
  config.period = sim.period;
  config.unlock_steps = sim.unlock_steps;
  config.fair_share_n = sim.fair_share_n;
  return config;
}

// The daemon process: serves `socket_path` until the client sends Shutdown (or the idle
// budget runs out), then writes its DaemonReport to `report_fd`.
int ServeDaemon(const std::string& socket_path, const dpack::SimConfig& sim, int report_fd) {
  dpack::AlphaGridPtr grid = dpack::AlphaGrid::Default();
  dpack::BlockManager blocks(grid, sim.eps_g, sim.delta_g);
  DaemonReport report;
  bool served = false;
  {
    dpack::GrantService service(dpack::GreedyMetric::kDpack, &blocks, ServiceConfigFor(sim));
    std::vector<double> schedule = dpack::BlockArrivalSchedule(sim);
    size_t next_block = 0;
    dpack::NetAddress address;
    address.is_unix = true;
    address.path = socket_path;
    dpack::NetFrontConfig front_config;
    front_config.serve_idle_budget = kServeIdleBudget;
    dpack::NetServiceFront front(&service, &blocks, grid,
                                 std::make_unique<dpack::NetListener>(address), front_config,
                                 [&blocks, &schedule, &next_block](double now) {
                                   while (next_block < schedule.size() &&
                                          schedule[next_block] <= now) {
                                     blocks.AddBlock(schedule[next_block]);
                                     ++next_block;
                                   }
                                 });
    served = front.ServeUntilShutdown();
    dpack::ServiceCounters counters = service.counters();
    report.cycles = front.counters().cycles_run;
    report.protocol_rejects = front.counters().protocol_rejects;
    report.budget_disconnects = front.counters().budget_disconnects;
    report.recoveries = counters.recoveries;
    report.admission_rejects = counters.admission_rejects;
    report.messages = counters.messages_sent + counters.messages_received;
    report.bytes = counters.bytes_sent + counters.bytes_received;
    report.score_rounds = counters.score_rounds;
    report.ring_stalls = counters.ring_stalls;
  }  // The fleet shuts down with the service.
  report.budget_violations = CountBudgetViolations(blocks);
  bool written = write(report_fd, &report, sizeof(report)) == sizeof(report);
  close(report_fd);
  return served && written ? 0 : 3;
}

struct RemoteRecord {
  bool ok = false;                 // Every RPC succeeded and the daemon exited 0.
  std::string error;
  double setup_s = 0.0;            // Daemon fork + connect.
  double connect_s = 0.0;
  double wall_s = 0.0;             // The timed phase: every RPC of the workload.
  double cpu_s = 0.0;              // Client + daemon + workers over the timed phase.
  double fleet_cpu_s = 0.0;        // Daemon + workers alone.
  std::vector<double> submit_s;
  std::vector<double> cycle_s;
  std::vector<std::vector<dpack::TaskId>> grant_trace;
  uint64_t granted = 0;
  uint64_t rpcs = 0;
  uint64_t failed_rpcs = 0;
  uint64_t rejected = 0;
  dpack::NetCounters client;
  DaemonReport daemon;
};

class RemoteReplay {
 public:
  RemoteReplay(const dpack::SimConfig& sim, std::vector<dpack::Task> tasks, std::string run_dir,
               size_t instance)
      : sim_(sim), tasks_(std::move(tasks)), run_dir_(std::move(run_dir)), instance_(instance) {
    std::vector<double> block_schedule = dpack::BlockArrivalSchedule(sim_);
    double horizon = dpack::SimulationHorizon(sim_, tasks_, block_schedule);
    double next_after_horizon = 0.0;
    cycles_ = dpack::CycleInstants(sim_, horizon, &next_after_horizon);
    std::stable_sort(tasks_.begin(), tasks_.end(), [](const dpack::Task& a, const dpack::Task& b) {
      return a.arrival_time < b.arrival_time;
    });
  }

  RemoteRecord Run(Tracer& tracer);

 private:
  // Submits every not-yet-submitted task arriving at or before `cutoff`, one Submit per
  // distinct arrival instant.
  bool SubmitThrough(double cutoff, dpack::ServiceClient& client, size_t* next_task,
                     Tracer& tracer, RemoteRecord* record);

  dpack::SimConfig sim_;
  std::vector<dpack::Task> tasks_;
  std::vector<double> cycles_;
  std::string run_dir_;
  size_t instance_;
  uint64_t launches_ = 0;
};

bool RemoteReplay::SubmitThrough(double cutoff, dpack::ServiceClient& client,
                                 size_t* next_task, Tracer& tracer, RemoteRecord* record) {
  while (*next_task < tasks_.size() && tasks_[*next_task].arrival_time <= cutoff) {
    double instant = tasks_[*next_task].arrival_time;
    std::vector<dpack::Task> batch;
    while (*next_task < tasks_.size() && tasks_[*next_task].arrival_time == instant) {
      batch.push_back(tasks_[*next_task]);
      ++*next_task;
    }
    uint64_t accepted = 0, rejected = 0;
    ++record->rpcs;
    ScopedSpan span(tracer, "service.client_submit");
    Clock::time_point t0 = Clock::now();
    if (!client.Submit(instant, batch, &accepted, &rejected, &record->error)) {
      ++record->failed_rpcs;
      return false;
    }
    record->submit_s.push_back(SecondsBetween(t0, Clock::now()));
    record->rejected += rejected;
  }
  return true;
}

RemoteRecord RemoteReplay::Run(Tracer& tracer) {
  RemoteRecord record;
  const std::string socket_path = run_dir_ + "/d" + std::to_string(getpid()) + "-" +
                                  std::to_string(instance_) + "-" +
                                  std::to_string(launches_++) + ".sock";
  int report_pipe[2];
  if (pipe(report_pipe) != 0) {
    record.error = "pipe failed";
    return record;
  }
  Clock::time_point setup_start = Clock::now();
  const dpack::SimConfig sim = sim_;
  pid_t daemon = dpack::SpawnChild([&socket_path, &sim, &report_pipe]() {
    close(report_pipe[0]);
    return ServeDaemon(socket_path, sim, report_pipe[1]);
  });
  close(report_pipe[1]);

  dpack::ServiceClient client;
  Clock::time_point connect_start = Clock::now();
  bool ok = client.Connect("unix:" + socket_path, &record.error);
  Clock::time_point connected = Clock::now();
  record.connect_s = SecondsBetween(connect_start, connected);
  record.setup_s = SecondsBetween(setup_start, connected);

  CpuTimes cpu_before = ReadCpuTimes();
  Clock::time_point start = Clock::now();
  if (ok) {
    ScopedSpan replay_span(tracer, "replay.remote");
    size_t next_task = 0;
    for (double t : cycles_) {
      if (!SubmitThrough(t, client, &next_task, tracer, &record)) {
        ok = false;
        break;
      }
      std::vector<dpack::TaskId> granted;
      ++record.rpcs;
      ScopedSpan span(tracer, "service.client_cycle");
      Clock::time_point t0 = Clock::now();
      if (!client.RunCycle(t, &granted, &record.error)) {
        ++record.failed_rpcs;
        ok = false;
        break;
      }
      record.cycle_s.push_back(SecondsBetween(t0, Clock::now()));
      record.granted += granted.size();
      record.grant_trace.push_back(std::move(granted));
    }
    // Stragglers past the last cycle are still submitted, as the in-process driver does.
    ok = ok && SubmitThrough(std::numeric_limits<double>::infinity(), client, &next_task,
                             tracer, &record);
  }
  record.wall_s = SecondsBetween(start, Clock::now());

  ok = ok && client.SendShutdown(&record.error);
  record.client = client.counters();
  client.Close();
  if (!ok) {
    dpack::KillChild(daemon, SIGKILL);  // Never leave a daemon behind a failed replay.
  }
  dpack::ChildStatus status = dpack::WaitChild(daemon);
  record.cpu_s = CpuSecondsBetween(cpu_before, ReadCpuTimes());
  record.fleet_cpu_s = ReadCpuTimes().children_s - cpu_before.children_s;
  bool reported = read(report_pipe[0], &record.daemon, sizeof(record.daemon)) ==
                  static_cast<ssize_t>(sizeof(record.daemon));
  close(report_pipe[0]);
  std::error_code ignored;
  std::filesystem::remove(socket_path, ignored);
  bool daemon_ok = status.state == dpack::ChildState::kExited && status.exit_code == 0;
  if (ok && !daemon_ok) {
    record.error = "daemon did not exit cleanly after Shutdown";
  } else if (ok && !reported) {
    record.error = "daemon sent no report";
  }
  record.ok = ok && daemon_ok && reported;
  return record;
}

void CheckRemote(Report& report, const std::string& label, const RemoteRecord& record,
                 const dpack::SimResult& reference) {
  report.attempted += record.rpcs;
  report.failed += record.failed_rpcs + record.rejected + record.daemon.protocol_rejects +
                   record.client.protocol_rejects + record.daemon.budget_disconnects +
                   record.daemon.recoveries;
  if (!record.ok) {
    report.Fail(label + ": " + record.error);
    return;
  }
  CheckGrantTrace(report, label, record.grant_trace, reference.grant_trace);
  if (record.daemon.budget_violations > 0) {
    report.Fail(label + ": " + std::to_string(record.daemon.budget_violations) +
                " daemon blocks exceed their budget at every order");
  }
}

// The GrantService leg of the traced run: the same fleet, in process, without the socket.
struct GrantLeg {
  ReplayRecord record;
  dpack::ServiceCounters counters;
  size_t budget_violations = 0;
};

GrantLeg RunGrantLeg(const dpack::SimConfig& sim, const std::vector<Step>& plan,
                     std::vector<dpack::Task> tasks, Tracer& tracer) {
  dpack::BlockManager blocks(dpack::AlphaGrid::Default(), sim.eps_g, sim.delta_g);
  GrantLeg leg;
  {
    dpack::GrantService service(dpack::GreedyMetric::kDpack, &blocks, ServiceConfigFor(sim));
    leg.record = ReplayInProcess(
        service, blocks, plan, std::move(tasks), tracer,
        SpanNames{"replay.grant", "service.grant_submit", "service.grant_cycle"});
    leg.counters = service.counters();
  }
  leg.budget_violations = CountBudgetViolations(blocks);
  return leg;
}

// One scenario instance: its inputs, its in-process reference and its remote driver.
struct Instance {
  dpack::SimConfig sim;
  std::vector<dpack::Task> tasks;
  dpack::SimResult reference;
  std::vector<Step> plan;
  RemoteReplay remote;
};

}  // namespace

Report RunServiceRemote(const Options& options) {
  Report report;
  SetupTimes setup;
  std::unique_ptr<dpack::CurvePool> pool;
  std::vector<dpack::ScenarioWorkload> workloads =
      TimedSetup(&setup, &pool, [&](const dpack::CurvePool& p) {
        std::vector<dpack::ScenarioWorkload> generated;
        for (size_t i = 0; i < kInstances; ++i) {
          dpack::ScenarioSpec spec =
              dpack::ScenarioByName("bursty_hotspot", options.seed + i * kInstanceSeedStride);
          spec.task_span = kTaskSpan;
          spec.num_blocks = kBlocks;
          generated.push_back(dpack::GenerateScenario(p, spec));
        }
        return generated;
      });
  std::vector<Instance> instances;
  for (size_t i = 0; i < kInstances; ++i) {
    dpack::SimConfig sim = workloads[i].sim;
    sim.record_grant_trace = true;
    instances.push_back(Instance{
        sim, workloads[i].tasks,
        dpack::RunOnlineSimulation(dpack::CreateScheduler(dpack::SchedulerKind::kDpack),
                                   workloads[i].tasks, sim),
        PlanReplay(sim, workloads[i].tasks),
        RemoteReplay(sim, workloads[i].tasks, options.run_dir, i)});
  }

  Tracer untraced(false);
  Tracer traced(true);
  std::vector<RemoteRecord> plain;
  std::vector<RemoteRecord> traced_remote;
  std::vector<GrantLeg> grant_legs;
  std::vector<OnlineLeg> online_legs;
  double peak_rss_mb = 0.0;  // Read after the first round, so it does not grow with run length.
  // Warm-up replays, checked but not timed: the first seconds of sleep-polling round trips
  // on a freshly idle host run measurably slower than the rest of the run.
  for (size_t w = 0; w < kWarmupReplays; ++w) {
    Instance& instance = instances[w % kInstances];
    CheckRemote(report, "service_remote warm-up replay", instance.remote.Run(untraced),
                instance.reference);
  }
  Clock::time_point start = Clock::now();
  size_t samples = 0;
  // Whole rounds over every instance, so each run weighs the instances equally.
  while (report.correct() &&
         KeepMeasuring(start, options.seconds, samples, MinSamplesForTail(0.9))) {
    for (Instance& instance : instances) {
      const std::string label = "service_remote instance " +
                                std::to_string(&instance - instances.data());
      plain.push_back(instance.remote.Run(untraced));
      CheckRemote(report, label + " replay", plain.back(), instance.reference);
      samples += plain.back().cycle_s.size();
      if (!options.trace) {
        continue;
      }
      traced.set_run(static_cast<uint32_t>(traced_remote.size()));
      traced_remote.push_back(instance.remote.Run(traced));
      CheckRemote(report, label + " traced replay", traced_remote.back(), instance.reference);
      grant_legs.push_back(RunGrantLeg(instance.sim, instance.plan, instance.tasks, traced));
      const GrantLeg& grant = grant_legs.back();
      CheckGrantTrace(report, label + " GrantService leg", grant.record.grant_trace,
                      instance.reference.grant_trace);
      report.attempted += grant.record.cycle_s.size();
      report.failed += grant.counters.recoveries + grant.counters.admission_rejects;
      online_legs.push_back(RunOnlineLeg(instance.sim, instance.plan, instance.tasks, traced));
      CheckGrantTrace(report, label + " OnlineScheduler leg",
                      online_legs.back().record.grant_trace, instance.reference.grant_trace);
      report.attempted += online_legs.back().record.cycle_s.size();
      if (grant.budget_violations + online_legs.back().budget_violations > 0) {
        report.Fail(label + ": an in-process block exceeds its budget at every order");
      }
    }
    peak_rss_mb = peak_rss_mb > 0.0 ? peak_rss_mb : PeakRssMib();
  }
  report.shards = instances.front().reference.scheduler_stats.shards;
  report.fleet_workers = dpack::GrantServiceConfig{}.service.num_workers;
  if (!report.correct()) {
    return report;
  }

  if (!options.trace) {
    std::vector<double> setup_s, tasks_per_s, cpu_s, cycle_s, submit_s;
    uint64_t granted = 0;
    for (size_t r = 0; r < plain.size(); ++r) {
      const RemoteRecord& record = plain[r];
      size_t tasks = instances[r % kInstances].tasks.size();
      setup_s.push_back(record.setup_s);
      tasks_per_s.push_back(static_cast<double>(tasks) / record.wall_s);
      cpu_s.push_back(record.cpu_s);
      cycle_s.insert(cycle_s.end(), record.cycle_s.begin(), record.cycle_s.end());
      submit_s.insert(submit_s.end(), record.submit_s.begin(), record.submit_s.end());
      granted += r < kInstances ? record.granted : 0;
    }
    report.Add("setup_s", Median(setup.total_s) + Median(setup_s), setup.total_s.size());
    report.Add("tasks_per_s", Median(tasks_per_s), tasks_per_s.size());
    report.AddSummary("cycle_ms", cycle_s, 1e3);
    report.AddSummary("submit_ms", submit_s, 1e3, 0.95);
    report.Add("cpu_s", Median(cpu_s), cpu_s.size());
    report.Add("peak_rss_mb", peak_rss_mb);
    report.Add("tasks_granted", static_cast<double>(granted), kInstances);
    return report;
  }

  AddSetupLayerMetrics(report, setup);
  AddCoreLayerMetrics(report, traced, online_legs);
  std::vector<double> client_cycle = traced.Durations("service.client_cycle");
  std::vector<double> client_submit = traced.Durations("service.client_submit");
  std::vector<double> grant_cycle = traced.Durations("service.grant_cycle");
  std::vector<double> grant_submit = traced.Durations("service.grant_submit");
  std::vector<double> engine_cycle = traced.Durations("core.run_cycle");
  report.Add("service.grant_submit_us_p50", Median(grant_submit) * 1e6, grant_submit.size());
  report.AddSummary("service.grant_cycle_ms", grant_cycle, 1e3);
  report.Add("service.edge_cycle_ms_p50", (Median(client_cycle) - Median(grant_cycle)) * 1e3,
             client_cycle.size());
  report.Add("service.edge_submit_ms_p50", (Median(client_submit) - Median(grant_submit)) * 1e3,
             client_submit.size());
  report.Add("service.fleet_cycle_ms_p50", (Median(grant_cycle) - Median(engine_cycle)) * 1e3,
             grant_cycle.size());

  double cycles = 0.0, rpcs = 0.0, messages = 0.0, bytes = 0.0, rounds = 0.0, stalls = 0.0;
  double frames = 0.0, net_bytes = 0.0, recoveries = 0.0, admission = 0.0, protocol = 0.0;
  std::vector<double> fleet_cpu, connect, traced_wall, plain_wall;
  for (const RemoteRecord& record : traced_remote) {
    cycles += static_cast<double>(record.daemon.cycles);
    rpcs += static_cast<double>(record.rpcs);
    messages += static_cast<double>(record.daemon.messages);
    bytes += static_cast<double>(record.daemon.bytes);
    rounds += static_cast<double>(record.daemon.score_rounds);
    stalls += static_cast<double>(record.daemon.ring_stalls);
    frames += static_cast<double>(record.client.frames_sent + record.client.frames_received);
    net_bytes += static_cast<double>(record.client.bytes_sent + record.client.bytes_received);
    recoveries += static_cast<double>(record.daemon.recoveries);
    admission += static_cast<double>(record.daemon.admission_rejects);
    protocol += static_cast<double>(record.daemon.protocol_rejects +
                                    record.client.protocol_rejects);
    fleet_cpu.push_back(record.fleet_cpu_s);
    connect.push_back(record.connect_s);
    traced_wall.push_back(record.wall_s);
  }
  for (const RemoteRecord& record : plain) {
    plain_wall.push_back(record.wall_s);
  }
  size_t replays = traced_remote.size();
  report.Add("service.msgs_per_cycle", messages / cycles, replays);
  report.Add("service.bytes_per_cycle", bytes / cycles, replays);
  report.Add("service.score_rounds_per_cycle", rounds / cycles, replays);
  report.Add("service.ring_stalls", stalls / static_cast<double>(replays), replays);
  report.Add("service.net_frames_per_rpc", frames / rpcs, replays);
  report.Add("service.net_bytes_per_rpc", net_bytes / rpcs, replays);
  report.Add("service.recoveries", recoveries, replays);
  report.Add("service.admission_rejects", admission, replays);
  report.Add("service.protocol_rejects", protocol, replays);
  report.Add("service.fleet_cpu_s", Median(fleet_cpu), replays);
  report.Add("service.connect_ms", Median(connect) * 1e3, replays);
  AddTraceMetrics(report, traced, traced_wall, plain_wall);
  if (!traced.WriteCsv(options.run_dir + "/trace_service_remote.csv")) {
    report.Note("could not write the span dump");
  }
  return report;
}

}  // namespace perfbench

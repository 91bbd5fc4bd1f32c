// hqr_bench: the end-to-end benchmark of the whole stack (README.md).
//
//   hqr_bench --workload=<ts-lsq|square-qr|dist-2x2|serve-mix|all>
//             --seed=N [--seconds=20] [--trace=DIR] [--json=PATH]
//   hqr_bench --smoke [--trace=DIR]   tiny sizes, every workload, seconds
//   hqr_bench --calibrate             serve-mix closed-loop saturation rate
//
// Without --trace a run measures the end-to-end metrics; with --trace=DIR it
// is the separate traced run that measures every layer and writes its spans
// and executor timelines there as Perfetto JSON. Every metric is printed as
// a `name value unit` line; --json writes them with the run's host block and
// operation counts as one JSON object per workload, one per line.
#include <spawn.h>
#include <sys/wait.h>
#include <unistd.h>

#include <cstdio>
#include <filesystem>
#include <fstream>
#include <iostream>

#include "bench.hpp"
#include "common/cli.hpp"

extern char** environ;

using namespace hqr;
using namespace hqr::bench;

namespace {

const char* const kWorkloads[] = {"ts-lsq", "square-qr", "dist-2x2", "serve-mix"};

SetupProbe setup_probe(const Config& c, std::uint64_t seed, const std::string& w) {
  if (w == "dist-2x2") return dist_setup(c, seed);
  if (w == "serve-mix") return serve_setup(c, seed);
  return local_setup(c, seed, w == "ts-lsq");
}

// One cold set-up: this binary started afresh with --setup-probe. Its
// duration runs from the spawn until the child's first operation returned,
// on the shared monotonic clock, less the child's reference computations;
// kFailed when the child did not report.
double cold_setup(const std::string& w, const Run& run, bool* ok) {
  const std::string exe = std::filesystem::read_symlink("/proc/self/exe");
  std::vector<std::string> args = {exe, "--workload", w, "--seed",
                                   std::to_string(run.seed), "--setup-probe"};
  if (run.cfg.smoke) args.push_back("--smoke");
  std::vector<char*> argv;
  for (std::string& a : args) argv.push_back(a.data());
  argv.push_back(nullptr);

  int fds[2];
  HQR_CHECK(::pipe(fds) == 0, "pipe failed");
  posix_spawn_file_actions_t fa;
  posix_spawn_file_actions_init(&fa);
  posix_spawn_file_actions_adddup2(&fa, fds[1], STDOUT_FILENO);
  posix_spawn_file_actions_addclose(&fa, fds[0]);
  posix_spawn_file_actions_addclose(&fa, fds[1]);
  pid_t pid = 0;
  const double t0 = now();
  const int rc = posix_spawn(&pid, exe.c_str(), &fa, nullptr, argv.data(), environ);
  posix_spawn_file_actions_destroy(&fa);
  ::close(fds[1]);
  std::string out;
  char buf[256];
  ssize_t n = 0;
  while (rc == 0 && (n = ::read(fds[0], buf, sizeof(buf))) > 0) out.append(buf, n);
  ::close(fds[0]);
  int status = 0;
  if (rc == 0) ::waitpid(pid, &status, 0);

  double t_done = 0.0, excluded = 0.0;
  int child_ok = 0;
  const std::size_t at = out.find("setup_probe ");
  *ok = rc == 0 && WIFEXITED(status) && WEXITSTATUS(status) == 0 &&
        at != std::string::npos &&
        std::sscanf(out.c_str() + at, "setup_probe %lf %lf %d", &t_done, &excluded,
                    &child_ok) == 3 &&
        child_ok == 1;
  return *ok ? t_done - t0 - excluded : kFailed;
}

void run_workload(Run& run, const std::string& w) {
  if (!run.traced()) {
    Samples setup;
    for (int k = 0; k < run.cfg.setups; ++k) {
      bool ok = false;
      setup.add(cold_setup(w, run, &ok));
      run.ops.record(ok);
    }
    run.metrics.add("setup_s", setup.median(), "s");
    if (w == "ts-lsq") local_e2e(run, true);
    if (w == "square-qr") local_e2e(run, false);
    if (w == "dist-2x2") dist_e2e(run);
    if (w == "serve-mix") serve_e2e(run);
    return;
  }
  // The traced run measures every layer: the workload's own path in detail,
  // isolated probes, and short passes through the rank and serve layers for
  // workloads that do not reach them. run_ranks forks, so the dist pass
  // comes before any server thread exists.
  KernelRates rates;
  probe_kernels(run, rates);
  probe_serve_classes(run);
  if (w == "ts-lsq" || w == "square-qr") local_layers(run, w == "ts-lsq", rates);
  dist_layers(run, rates, w == "dist-2x2");
  serve_layers(run, rates, w == "serve-mix");
  run.spans.save_perfetto(run.trace_dir + "/spans.json");
}

void write_json(std::ostream& os, const Run& run, const std::string& w,
                const HostInfo& host) {
  os << "{\"workload\": \"" << w << "\", \"seed\": " << run.seed
     << ", \"traced\": " << (run.traced() ? "true" : "false")
     << ", \"seconds\": " << run.seconds << ", \"host\": {\"cpu\": \""
     << host.cpu << "\", \"nproc\": " << host.nproc << ", \"micro_kernel\": \""
     << host.micro_kernel << "\", \"tuning\": \"" << host.tuning
     << "\"}, \"correct\": " << (run.correct && run.ops.failed == 0 ? "true" : "false")
     << ", \"attempted\": " << run.ops.attempted << ", \"failed\": " << run.ops.failed
     << ", \"metrics\": ";
  run.metrics.write_json(os);
  os << "}\n";
}

}  // namespace

int main(int argc, char** argv) {
  Cli cli(argc, argv, {{"workload", "all"},
                       {"seed", "1"},
                       {"seconds", "20"},
                       {"trace", ""},
                       {"json", ""},
                       {"smoke", "false"},
                       {"calibrate", "false"},
                       {"setup-probe", "false"}});
  const Config cfg = cli.flag("smoke") ? smoke_config() : Config{};
  const double seconds = cfg.smoke ? 0.2 : cli.real("seconds");
  try {
    std::vector<std::string> workloads;
    const std::string w = cli.str("workload");
    for (const char* name : kWorkloads)
      if (w == "all" || w == name) workloads.push_back(name);
    HQR_CHECK(!workloads.empty(), "unknown --workload '" << w << "'");

    if (cli.flag("setup-probe")) {
      const SetupProbe p = setup_probe(
          cfg, static_cast<std::uint64_t>(cli.integer("seed")), cli.str("workload"));
      std::printf("setup_probe %.17g %.17g %d\n", p.done, p.excluded, p.ok ? 1 : 0);
      return 0;
    }
    if (cli.flag("calibrate")) {
      Samples rps;
      for (int i = 0; i < 3; ++i)
        rps.add(serve_calibrate(cfg, static_cast<std::uint64_t>(cli.integer("seed")),
                                seconds));
      std::cout << "serve.capacity_rps " << rps.median() << " 1/s (runs:";
      for (int i = 0; i < 3; ++i) std::cout << " " << rps.percentile((i + 1) / 3.0, 0);
      std::cout << ")\n";
      return 0;
    }

    std::ofstream json;
    if (!cli.str("json").empty()) {
      json.open(cli.str("json"));
      HQR_CHECK(json.good(), "cannot write " << cli.str("json"));
    }
    for (const std::string& name : workloads) {
      Run run;
      run.cfg = cfg;
      run.seed = static_cast<std::uint64_t>(cli.integer("seed"));
      run.seconds = seconds;
      if (!cli.str("trace").empty()) {
        run.trace_dir = cli.str("trace") + "/" + name;
        std::filesystem::create_directories(run.trace_dir);
        run.spans = Spans(true);
      }
      run_workload(run, name);
      const HostInfo host = host_info();
      std::cout << "# " << name << " seed=" << run.seed
                << " traced=" << run.traced() << " cpu=" << host.cpu
                << " nproc=" << host.nproc << " micro_kernel=" << host.micro_kernel
                << " tuning=" << host.tuning << "\n";
      run.metrics.add("error_rate",
                      static_cast<double>(run.ops.failed) /
                          static_cast<double>(std::max(1LL, run.ops.attempted)),
                      "ratio");
      run.metrics.print(std::cout);
      if (json.is_open()) write_json(json, run, name, host);
    }
  } catch (const Error& e) {
    std::cerr << "hqr_bench: " << e.what() << "\n";
    return 1;
  }
  return 0;
}

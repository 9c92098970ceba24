// tr_opt — batch transistor-reordering optimizer (DESIGN.md Sec. 9).
//
// The production entry point for the paper's suite-shaped flow: load N
// circuits, map them onto the Table 2 library, optimize all of them with
// two-level parallelism (circuit-level fan-out over gate-level scoring)
// against one shared reordering-catalog cache, and emit a deterministic
// machine-readable JSON report.
//
// Besides the one-shot batch mode, the binary is the optimization
// daemon and its client (DESIGN.md Sec. 13): `--serve` keeps one
// process-lifetime library warm across requests behind a framed socket
// protocol; `--connect` sends the same option surface as a request and
// streams the response.
//
// Circuits are positional (BLIF or structural-Verilog files, embedded
// classics, generated suite entries; the daemon serves embedded and
// generated specs only). The run options are the rows of the run-option
// table (opt/run_options.hpp), which also parses a daemon request, so
// each flag is one request field; `tr_opt --help` lists every option.
// --checkpoint DIR journals each completed circuit (DESIGN.md Sec. 15);
// --resume re-emits the journaled ones, byte-identical under
// --no-timing --no-cache-stats to an uninterrupted run, the same
// carve-outs under which a one-shot run byte-compares against a daemon
// response (DESIGN.md Sec. 13.3).
//
// stdout carries exactly one JSON document (or nothing with --out);
// progress and the human summary go to stderr. Every JSON field except
// the wall-clock block is bit-identical across runs and --jobs values.
// A draining daemon dumps its metrics JSON (request counters, catalog
// cache hit/miss/eviction totals) to stdout before exiting.
//
// Exit codes (README "Error handling"): 0 = every circuit ok; 1 = fatal
// error (internal/unknown); 2 = usage; 3 = at least one circuit failed
// (takes precedence over cancellation); 4 = circuits were cancelled but
// none failed. --connect maps the daemon's response onto the same codes.
//
// TR_FAULT=site[:nth][:kind][@context] arms the deterministic
// fault-injection harness (util/fault.hpp) for the whole run — the CI
// recovery-path drills run this binary with a poisoned environment.

#include <cstdint>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <limits>
#include <set>
#include <string>
#include <vector>

#include "celllib/library.hpp"
#include "opt/batch.hpp"
#include "opt/batch_report.hpp"
#include "opt/checkpoint.hpp"
#include "opt/circuit_load.hpp"
#include "opt/run_options.hpp"
#include "util/cancel.hpp"
#include "util/error.hpp"
#include "util/fault.hpp"
#include "util/json.hpp"
#include "util/stats.hpp"
#include "util/strings.hpp"

#ifdef TR_HAVE_SERVER
#include <csignal>

#include "server/client.hpp"
#include "server/retry_client.hpp"
#include "server/server.hpp"
#endif

namespace {

using namespace tr;

int usage(const char* error) {
  if (error != nullptr) std::cerr << "tr_opt: " << error << "\n";
  std::cerr
      << "usage: tr_opt [circuit ...] [option ...]       one-shot batch\n"
         "       tr_opt --serve [option ...]              the daemon\n"
         "       tr_opt --connect HOST:PORT [circuit ...] [option ...]\n"
         "       tr_opt --connect HOST:PORT --shutdown    drain the daemon\n"
         "circuits: BLIF/structural-Verilog files, embedded classics "
         "(c17, fulladder, cmp2, dec2to4),\n"
         "or generated suite entries (b1 ... alu4, syn1000 ... syn8000)\n"
         "run options (each also a field of a --connect request):\n"
      << opt::options_help()
      << "batch options:\n"
         "  --suite classic|table3|scaled      append the whole suite\n"
         "  --out DIR                          batch.json + <circuit>.json "
         "files\n"
         "  --no-timing                        omit wall-clock fields\n"
         "  --no-cache-stats                   omit the catalog_cache block\n"
         "  --checkpoint DIR                   journal completed circuits\n"
         "  --resume                           skip journaled circuits\n"
         "server options (--serve):\n"
         "  --host ADDR                        bind address (127.0.0.1)\n"
         "  --port N                           TCP port, 0 = ephemeral (0)\n"
         "  --port-file PATH                   write the bound port to PATH\n"
         "  --workers N                        request executors (default 2)\n"
         "  --max-queue N                      queued-request bound (64)\n"
         "  --catalog-capacity N               catalog LRU bound, 0 = none\n"
         "client options (--connect):\n"
         "  --retries N                        extra attempts (default 0)\n"
         "  --retry-base-ms F                  first backoff (default 100)\n"
         "  --timeout-ms F                     per-read timeout (none)\n";
  return 2;
}

/// The full option surface of one run, shared by the batch, serve and
/// connect modes (the connect mode sends `request` as its document).
struct Options {
  opt::RunRequest request;  ///< circuits and every run option
  std::string out_dir;
  opt::BatchJsonOptions json;

  std::string checkpoint_dir;  ///< empty = journaling off
  bool resume = false;

  bool serve = false;
  std::string connect;  ///< HOST:PORT, empty = one-shot batch mode
  std::string connect_host;
  int connect_port = 0;
  bool shutdown = false;
  int retries = 0;                ///< extra client attempts after the first
  double retry_base_ms = 100.0;   ///< backoff of the first retry
  double timeout_ms = -1.0;       ///< per-attempt connect/read timeout
  int port = 0;
  std::string host = "127.0.0.1";
  std::string port_file;
  int workers = 2;
  long long max_queue = 64;
  std::uint64_t catalog_capacity = 0;
};

int run_batch(Options& o) {
  try {
    // CI recovery drills poison the pipeline through the environment.
    tr::util::fault::install_from_env();

    const celllib::CellLibrary library = celllib::CellLibrary::standard();
    const celllib::Tech tech;

    std::vector<opt::BatchCircuit> batch;
    opt::RunRequest& r = o.request;
    batch.reserve(r.circuits.size());
    for (const std::string& spec : r.circuits) {
      batch.push_back(opt::make_scenario_circuit_guarded(
          spec, r.scenario, r.seed, library,
          [&] { return opt::load_circuit_spec(spec, library); }));
      const opt::BatchCircuit& circuit = batch.back();
      if (circuit.load_error) {
        std::cerr << "failed to load " << spec << ": "
                  << circuit.load_error->message << "\n";
      } else {
        std::cerr << "loaded " << circuit.name << ": "
                  << circuit.netlist.gate_count() << " gates\n";
      }
    }

    // Armed after loading so --deadline-ms budgets the optimization
    // itself, not suite generation.
    if (r.deadline_ms) {
      r.batch.cancel = util::CancellationToken::with_deadline_ms(
          *r.deadline_ms);
    }

    // Checkpoint journaling (DESIGN.md Sec. 15.2): the manifest pins the
    // run fingerprint, resume re-applies journaled results onto the
    // freshly loaded batch, and the journal hook makes each freshly
    // completed circuit durable before its progress is visible.
    std::optional<opt::checkpoint::CheckpointJournal> journal;
    if (!o.checkpoint_dir.empty()) {
      journal.emplace(
          o.checkpoint_dir, o.resume,
          opt::checkpoint::render_manifest(r.circuits, r.scenario, r.seed,
                                           r.batch));
      if (o.resume) {
        const int resumed = journal->load(batch);
        std::cerr << "tr_opt: resumed " << resumed << "/" << batch.size()
                  << " circuits from " << o.checkpoint_dir << "\n";
      }
      r.batch.journal = [&journal](std::size_t i,
                                   const opt::BatchCircuit& circuit,
                                   const opt::BatchCircuitResult& result) {
        journal->record(i, circuit, result);
      };
    }

    const opt::BatchOptimizer optimizer(library, tech, r.batch);
    const opt::BatchReport report = optimizer.run(batch);

    if (journal) {
      // Journal damage is never fatal — a damaged entry was re-run, a
      // failed write only costs resumability — but it is never silent
      // either.
      for (const opt::checkpoint::JournalWarning& warning :
           journal->warnings()) {
        std::cerr << "tr_opt: warning: journal " << warning.file << " ["
                  << error_code_name(warning.code)
                  << "]: " << warning.message << "\n";
      }
    }

    o.json.include_gate_configs = r.gate_configs;
    if (o.out_dir.empty()) {
      write_batch_json(batch, report, r.batch, std::cout, o.json);
    } else {
      namespace fs = std::filesystem;
      fs::create_directories(o.out_dir);
      {
        std::ofstream out(fs::path(o.out_dir) / "batch.json");
        require(out.good(), "cannot write to '" + o.out_dir + "'");
        write_batch_json(batch, report, r.batch, out, o.json);
      }
      // Deterministic, collision-proof file names: bump a suffix until
      // the final name is genuinely unused ("a", "a", "a_2" must yield
      // three distinct files, not overwrite one another).
      std::set<std::string> taken;
      for (std::size_t i = 0; i < batch.size(); ++i) {
        const std::string base = sanitize_filename(report.circuits[i].name);
        std::string final_name = base;
        for (int suffix = 2; taken.contains(final_name); ++suffix) {
          final_name = base + "_" + std::to_string(suffix);
        }
        taken.insert(final_name);
        std::ofstream out(fs::path(o.out_dir) / (final_name + ".json"));
        require(out.good(),
                "cannot write circuit report for '" + final_name + "'");
        write_circuit_json(batch[i], report.circuits[i], out, o.json);
      }
      std::cerr << "reports written to " << o.out_dir << "/\n";
    }

    std::cerr << "optimized " << report.circuits_ok << "/"
              << report.circuits.size() << " circuits ("
              << report.circuits_failed << " error, "
              << report.circuits_cancelled << " cancelled), "
              << report.gates_total << " gates (" << report.gates_changed
              << " reordered): model power "
              << format_fixed(report.model_power_before * 1e6, 3) << " -> "
              << format_fixed(report.model_power_after * 1e6, 3) << " uW ("
              << format_fixed(percent_reduction(report.model_power_before,
                                                report.model_power_after),
                              1)
              << "% reduction), catalog cache hit rate "
              << format_fixed(report.cache.hit_rate() * 100.0, 1) << "% ("
              << report.cache.hits << "/" << report.cache.lookups()
              << "), " << format_fixed(report.elapsed_ms, 1) << " ms on "
              << report.jobs << " jobs\n";

    // Category exit codes: a circuit error beats cancellation — the
    // caller must look at the report even when a deadline also fired.
    if (report.circuits_failed > 0) return 3;
    if (report.circuits_cancelled > 0) return 4;
  } catch (const Error& e) {
    std::cerr << "tr_opt: error: " << e.what() << "\n";
    switch (e.code()) {
      case ErrorCode::cancelled:
        return 4;
      case ErrorCode::internal:
      case ErrorCode::unknown:
        return 1;
      default:
        return 3;  // parse / invalid input / injected / resource
    }
  } catch (const std::exception& e) {
    std::cerr << "tr_opt: fatal: " << e.what() << "\n";
    return 1;
  }
  return 0;
}

/// Splits HOST:PORT (or bare PORT, meaning loopback). Throws tr::Error
/// (invalid_argument) on anything else.
void parse_endpoint(const std::string& spec, std::string& host, int& port) {
  const std::size_t colon = spec.rfind(':');
  const bool bare = colon == std::string::npos;
  host = bare ? "127.0.0.1" : spec.substr(0, colon);
  const long long value =
      parse_int("--connect port", bare ? spec : spec.substr(colon + 1));
  if (value < 1 || value > 65535) {
    throw Error("--connect port must be in 1..65535",
                ErrorCode::invalid_argument);
  }
  port = static_cast<int>(value);
}

#ifdef TR_HAVE_SERVER

server::Server* g_server = nullptr;

extern "C" void handle_drain_signal(int) {
  // request_drain is async-signal-safe (one pipe write).
  if (g_server != nullptr) g_server->request_drain();
}

int run_serve(const Options& o) {
  try {
    tr::util::fault::install_from_env();

    server::ServerConfig config;
    config.host = o.host;
    config.port = o.port;
    config.service.workers = o.workers;
    config.service.max_queue = static_cast<std::size_t>(o.max_queue);
    config.service.catalog_capacity =
        static_cast<std::size_t>(o.catalog_capacity);

    server::Server daemon(config);
    daemon.start();

    g_server = &daemon;
    std::signal(SIGTERM, handle_drain_signal);
    std::signal(SIGINT, handle_drain_signal);
    // MSG_NOSIGNAL covers the framed writes; ignoring SIGPIPE as well
    // keeps any stray fd write from killing the daemon.
    std::signal(SIGPIPE, SIG_IGN);

    if (!o.port_file.empty()) {
      std::ofstream out(o.port_file);
      require(out.good(), "cannot write port file '" + o.port_file + "'");
      out << daemon.port() << "\n";
    }
    std::cerr << "tr_opt: serving on " << config.host << ":" << daemon.port()
              << " (" << o.workers << " workers, queue " << o.max_queue
              << ", catalog capacity "
              << (o.catalog_capacity == 0 ? std::string("unbounded")
                                          : std::to_string(o.catalog_capacity))
              << ")\n";

    daemon.serve();
    g_server = nullptr;

    // The drain-time metrics dump: the one place the cross-request
    // cache hit rate and eviction counters are reported.
    daemon.write_metrics_json(std::cout);
    std::cout << "\n";
    std::cerr << "tr_opt: drained\n";
    return 0;
  } catch (const std::exception& e) {
    g_server = nullptr;
    std::cerr << "tr_opt: fatal: " << e.what() << "\n";
    return 1;
  }
}

/// Maps a terminal frame onto the CLI exit codes so `--connect` scripts
/// interchange with one-shot runs.
int connect_exit_code(const server::ClientResult& result) {
  const util::JsonValue doc = util::json_parse(result.payload);
  if (result.type == server::kFrameResponse) {
    const util::JsonValue* totals = doc.find("totals");
    require(totals != nullptr, "client: response carries no totals");
    if (totals->find("circuits_error")->as_i64("circuits_error") > 0) {
      return 3;
    }
    if (totals->find("circuits_cancelled")->as_i64("circuits_cancelled") >
        0) {
      return 4;
    }
    return 0;
  }
  const std::string& code = doc.find("code")->as_string("code");
  std::cerr << "tr_opt: server error [" << code
            << "]: " << doc.find("message")->as_string("message") << "\n";
  if (code == "cancelled") return 4;
  if (code == "internal" || code == "unknown") return 1;
  return 3;
}

int run_connect(const Options& o) {
  try {
    if (o.shutdown) {
      require(server::send_shutdown(o.connect_host, o.connect_port),
              "client: shutdown not acknowledged");
      std::cerr << "tr_opt: server draining\n";
      return 0;
    }

    if (o.request.circuits.empty()) {
      return usage("no circuits given");
    }
    server::RetryPolicy policy;
    policy.max_retries = o.retries;
    policy.base_backoff_ms = o.retry_base_ms;
    policy.timeout_ms = o.timeout_ms;
    // The jitter stream derives from the master seed so a scripted
    // client's whole retry schedule replays from one --seed value.
    policy.jitter_seed = o.request.seed;
    policy.on_retry = [](int attempt, double delay_ms,
                         const std::string& why) {
      std::cerr << "tr_opt: retry " << attempt << " in "
                << format_fixed(delay_ms, 0) << " ms: " << why << "\n";
    };
    const server::ClientResult result = server::run_request_with_retry(
        o.connect_host, o.connect_port, opt::render_request(o.request),
        policy,
        [](const std::string& payload) { std::cerr << payload << "\n"; });
    // The payload goes out verbatim — byte-comparable against a
    // one-shot run with --no-timing --no-cache-stats.
    std::cout << result.payload;
    return connect_exit_code(result);
  } catch (const Error& e) {
    std::cerr << "tr_opt: error: " << e.what() << "\n";
    return e.code() == ErrorCode::cancelled ? 4 : 1;
  } catch (const std::exception& e) {
    std::cerr << "tr_opt: fatal: " << e.what() << "\n";
    return 1;
  }
}

#endif  // TR_HAVE_SERVER

}  // namespace

int main(int argc, char** argv) {
  constexpr long long kIntMax = std::numeric_limits<int>::max();
  Options o;
  const std::vector<std::string> args(argv + 1, argv + argc);

  for (std::size_t i = 0; i < args.size(); ++i) {
    const std::string& arg = args[i];
    const auto next = [&]() -> const std::string& {
      if (i + 1 >= args.size()) {
        throw Error(arg + " needs a value", ErrorCode::invalid_argument);
      }
      return args[++i];
    };
    const auto int_in = [&](long long lo, long long hi, const char* must) {
      const long long value = parse_int(arg, next());
      if (value < lo || value > hi) {
        throw Error(arg + " must be " + must, ErrorCode::invalid_argument);
      }
      return value;
    };
    // A malformed value or a refused option is a usage error (exit 2).
    try {
      if (const std::size_t used = opt::apply_flag(o.request, args, i)) {
        i += used - 1;
      } else if (arg == "--suite") {
        for (std::string& spec : opt::suite_circuit_specs(next())) {
          o.request.circuits.push_back(std::move(spec));
        }
      } else if (arg == "--out") {
        o.out_dir = next();
      } else if (arg == "--checkpoint") {
        o.checkpoint_dir = next();
      } else if (arg == "--resume") {
        o.resume = true;
      } else if (arg == "--retries") {
        o.retries = static_cast<int>(int_in(0, kIntMax, "non-negative"));
      } else if (arg == "--retry-base-ms") {
        o.retry_base_ms = parse_double(arg, next());
        if (o.retry_base_ms < 0.0) {
          return usage("--retry-base-ms expects a non-negative number");
        }
      } else if (arg == "--timeout-ms") {
        o.timeout_ms = parse_double(arg, next());
        if (o.timeout_ms <= 0.0) {
          return usage("--timeout-ms expects a positive number");
        }
      } else if (arg == "--no-timing") {
        o.json.include_timing = false;
      } else if (arg == "--no-cache-stats") {
        o.json.include_cache_stats = false;
      } else if (arg == "--serve") {
        o.serve = true;
      } else if (arg == "--connect") {
        o.connect = next();
        parse_endpoint(o.connect, o.connect_host, o.connect_port);
      } else if (arg == "--shutdown") {
        o.shutdown = true;
      } else if (arg == "--port") {
        o.port = static_cast<int>(int_in(0, 65535, "in 0..65535"));
      } else if (arg == "--host") {
        o.host = next();
      } else if (arg == "--port-file") {
        o.port_file = next();
      } else if (arg == "--workers") {
        o.workers = static_cast<int>(int_in(1, kIntMax, "at least 1"));
      } else if (arg == "--max-queue") {
        o.max_queue = int_in(1, kIntMax, "at least 1");
      } else if (arg == "--catalog-capacity") {
        o.catalog_capacity = parse_u64(arg, next());
      } else if (arg == "--help" || arg == "-h") {
        return usage(nullptr);
      } else if (!arg.empty() && arg[0] == '-') {
        return usage(("unknown option '" + arg + "'").c_str());
      } else {
        o.request.circuits.push_back(arg);
      }
    } catch (const Error& e) {
      return usage(e.what());
    }
  }

  if (o.serve && !o.connect.empty()) {
    return usage("--serve and --connect are mutually exclusive");
  }
  if (o.shutdown && o.connect.empty()) {
    return usage("--shutdown requires --connect");
  }
  if (o.resume && o.checkpoint_dir.empty()) {
    return usage("--resume requires --checkpoint DIR");
  }
  if (!o.checkpoint_dir.empty() && (o.serve || !o.connect.empty())) {
    return usage("--checkpoint applies to one-shot batch mode only");
  }
  if ((o.retries != 0 || o.timeout_ms > 0.0 ||
       !o.request.request_id.empty()) &&
      o.connect.empty()) {
    return usage("--retries/--timeout-ms/--request-id require --connect");
  }

#ifdef TR_HAVE_SERVER
  if (o.serve) {
    if (!o.request.circuits.empty()) {
      return usage("--serve takes no circuits");
    }
    return run_serve(o);
  }
  if (!o.connect.empty()) return run_connect(o);
#else
  if (o.serve || !o.connect.empty()) {
    return usage("server mode is not available on this platform");
  }
#endif

  if (o.request.circuits.empty()) return usage("no circuits given");
  return run_batch(o);
}

// The run-option schema (opt/run_options): one descriptor table parses,
// validates and renders every run option for the command line, request
// documents and the checkpoint manifest. Pins flag/document parity for
// every row, the validator messages both paths share, the thread-count
// ceiling (at the parse layer only: no test here runs a batch, so a
// wrong bound cannot start the threads it should refuse) and the
// canonical rendering.

#include <gtest/gtest.h>

#include <map>
#include <set>
#include <stdexcept>
#include <string>
#include <vector>

#include "opt/run_options.hpp"
#include "util/error.hpp"
#include "util/json.hpp"

namespace tr::opt {
namespace {

/// Applies command-line arguments; each must be a run option.
RunRequest from_argv(const std::vector<std::string>& args) {
  RunRequest request;
  for (std::size_t i = 0; i < args.size();) {
    const std::size_t used = apply_flag(request, args, i);
    if (used == 0) throw std::logic_error("not a run option: " + args[i]);
    i += used;
  }
  return request;
}

/// Applies the members of a request document (circuits set directly).
RunRequest from_document(const std::string& json) {
  RunRequest request;
  for (const auto& [key, value] : util::json_parse(json).object) {
    if (key == "circuits") {
      for (const util::JsonValue& spec : value.array) {
        request.circuits.push_back(spec.as_string("circuit"));
      }
    } else if (!apply_field(request, key, value)) {
      throw std::logic_error("not a run option: " + key);
    }
  }
  return request;
}

/// The message a refused parse throws, or "accepted".
template <typename Parse>
std::string refusal(Parse parse) {
  try {
    parse();
  } catch (const Error& e) {
    EXPECT_EQ(e.code(), ErrorCode::invalid_argument) << e.what();
    return e.what();
  }
  return "accepted";
}

struct Sample {
  std::vector<std::string> argv;
  std::string field;  ///< the same setting as a JSON value
};

/// One non-default setting per row, as flags and as a document field.
const std::map<std::string, Sample>& samples() {
  static const std::map<std::string, Sample> table = {
      {"scenario", {{"--scenario", "B"}, R"("B")"}},
      {"seed",
       {{"--seed", "18446744073709551615"}, "18446744073709551615"}},
      {"jobs", {{"--jobs", "8"}, "8"}},
      {"threads_per_circuit", {{"--threads-per-circuit", "4"}, "4"}},
      {"objective", {{"--objective", "maximize"}, R"("maximize")"}},
      {"model", {{"--model", "output_only"}, R"("output_only")"}},
      {"delay_budget", {{"--delay-budget", "0.05"}, "0.05"}},
      {"engine", {{"--engine", "anneal"}, R"("anneal")"}},
      {"anneal_seed", {{"--anneal-seed", "7"}, "7"}},
      {"anneal_iters", {{"--anneal-iters", "3"}, "3"}},
      {"restrict_instance", {{"--restrict-instance"}, "true"}},
      {"keep_going", {{"--fail-fast"}, "false"}},
      {"deadline_ms", {{"--deadline-ms", "12.5"}, "12.5"}},
      {"priority", {{"--priority", "-3"}, "-3"}},
      {"gate_configs", {{"--no-gate-configs"}, "false"}},
      {"request_id", {{"--request-id", "key-1"}, R"("key-1")"}},
  };
  return table;
}

TEST(RunOptions, SamplesCoverEveryRow) {
  std::set<std::string> rows;
  for (const RunOption& row : run_options()) rows.insert(std::string(row.key));
  std::set<std::string> sampled;
  for (const auto& [key, sample] : samples()) sampled.insert(key);
  EXPECT_EQ(rows, sampled);
}

TEST(RunOptions, FlagsAndDocumentFieldsParseToEqualSettings) {
  const std::string defaults = render_request(RunRequest{});
  std::vector<std::string> all_args;
  std::string all_fields;
  for (const RunOption& row : run_options()) {
    const std::string key(row.key);
    const Sample& sample = samples().at(key);
    const std::string by_flag = render_request(from_argv(sample.argv));
    const std::string by_field =
        render_request(from_document("{\"" + key + "\": " + sample.field +
                                     "}"));
    EXPECT_EQ(by_flag, by_field) << key;
    EXPECT_NE(by_flag, defaults) << key << ": the sample is the default";
    all_args.insert(all_args.end(), sample.argv.begin(), sample.argv.end());
    all_fields += (all_fields.empty() ? "{\"" : ", \"") + key +
                  "\": " + sample.field;
  }

  const RunRequest r = from_argv(all_args);
  EXPECT_EQ(render_request(r), render_request(from_document(all_fields + "}")));
  EXPECT_EQ(r.scenario, 'B');
  EXPECT_EQ(r.seed, 18446744073709551615ULL);
  EXPECT_EQ(r.batch.jobs, 8);
  EXPECT_EQ(r.batch.threads_per_circuit, 4);
  EXPECT_EQ(r.batch.opt.objective, Objective::maximize_power);
  EXPECT_EQ(r.batch.opt.model, power::ModelKind::output_only);
  EXPECT_EQ(r.batch.opt.max_circuit_delay_increase, 0.05);
  EXPECT_EQ(r.batch.opt.engine, Engine::anneal);
  EXPECT_EQ(r.batch.opt.anneal.seed, 7u);
  EXPECT_EQ(r.batch.opt.anneal.iterations_per_gate, 3);
  EXPECT_TRUE(r.batch.opt.restrict_to_instance);
  EXPECT_FALSE(r.batch.keep_going);
  EXPECT_EQ(r.deadline_ms, 12.5);
  EXPECT_EQ(r.priority, -3);
  EXPECT_FALSE(r.gate_configs);
  EXPECT_EQ(r.request_id, "key-1");
}

TEST(RunOptions, RenderedRequestParsesBackIdentically) {
  RunRequest request = from_argv(
      {"--engine", "anneal", "--delay-budget", "0", "--seed", "9"});
  request.circuits = {"c17", "alu2"};
  const std::string rendered = render_request(request);
  EXPECT_EQ(render_request(from_document(rendered)), rendered);
}

TEST(RunOptions, ChoiceNamesFollowTheirEnums) {
  // A choice is held as the index of its name, so the names must be in
  // the enum's declaration order; the report encodings pin that.
  const auto rendered = [](const std::vector<std::string>& args,
                           const std::string& key) {
    const std::string doc = render_request(from_argv(args));
    return util::json_parse(doc).find(key)->as_string(key);
  };
  for (const Engine engine :
       {Engine::catalog, Engine::reference, Engine::anneal}) {
    EXPECT_EQ(rendered({"--engine", engine_name(engine)}, "engine"),
              engine_name(engine));
    EXPECT_EQ(from_argv({"--engine", engine_name(engine)}).batch.opt.engine,
              engine);
  }
  for (const power::ModelKind model :
       {power::ModelKind::extended, power::ModelKind::output_only}) {
    EXPECT_EQ(from_argv({"--model", model_name(model)}).batch.opt.model,
              model);
  }
  for (const Objective objective :
       {Objective::minimize_power, Objective::maximize_power}) {
    const std::string name = objective_name(objective);
    const std::string vocabulary = name.substr(0, name.find('_'));
    EXPECT_EQ(from_argv({"--objective", vocabulary}).batch.opt.objective,
              objective);
  }
  EXPECT_EQ(from_argv({"--scenario", "B"}).scenario, 'B');
}

TEST(RunOptions, UnsetOptionsRenderAsNullOrNotAtAll) {
  const std::string rendered = render_request(RunRequest{});
  EXPECT_NE(rendered.find("\"delay_budget\": null"), std::string::npos);
  EXPECT_NE(rendered.find("\"deadline_ms\": null"), std::string::npos);
  // request_id is a non-empty string when present, so unset = absent.
  EXPECT_EQ(rendered.find("request_id"), std::string::npos);
}

TEST(RunOptions, FlagAndFieldShareTheValidatorMessage) {
  const std::vector<std::pair<Sample, std::string>> refused = {
      {{{"--scenario", "C"}, R"({"scenario": "C"})"},
       R"(request: scenario must be "A" or "B")"},
      {{{"--objective", "min"}, R"({"objective": "min"})"},
       R"(request: objective must be "minimize" or "maximize")"},
      {{{"--model", "full"}, R"({"model": "full"})"},
       R"(request: model must be "extended" or "output_only")"},
      {{{"--engine", "greedy"}, R"({"engine": "greedy"})"},
       R"(request: engine must be "catalog", "reference" or "anneal")"},
      {{{"--delay-budget", "-0.5"}, R"({"delay_budget": -0.5})"},
       "request: delay_budget must be a non-negative number or null"},
      {{{"--deadline-ms", "-1"}, R"({"deadline_ms": -1})"},
       "request: deadline_ms must be a finite non-negative number or null"},
      {{{"--anneal-iters", "0"}, R"({"anneal_iters": 0})"},
       "request: anneal_iters must be >= 1"},
      {{{"--priority", "3000000000"}, R"({"priority": 3000000000})"},
       "request: priority is out of range"},
      {{{"--request-id", ""}, R"({"request_id": ""})"},
       "request: request_id must be a non-empty string"},
  };
  for (const auto& [sample, message] : refused) {
    EXPECT_EQ(refusal([&] { from_argv(sample.argv); }), message);
    EXPECT_EQ(refusal([&] { from_document(sample.field); }), message);
  }
}

TEST(RunOptions, ThreadCountsAreBoundedAtParse) {
  const std::string too_many =
      "request: jobs x threads_per_circuit must be at most 256";
  const auto flags = [](std::vector<std::string> args) {
    return refusal([&] { from_argv(args); });
  };
  const auto document = [](const std::string& json) {
    return refusal([&] { from_document(json); });
  };
  EXPECT_EQ(flags({"--jobs", "1000000"}), too_many);
  EXPECT_EQ(document(R"({"jobs": 1000000})"), too_many);
  EXPECT_EQ(flags({"--threads-per-circuit", "257"}), too_many);
  EXPECT_EQ(document(R"({"jobs": 0, "threads_per_circuit": 257})"),
            too_many);
  EXPECT_EQ(flags({"--jobs", "16", "--threads-per-circuit", "17"}),
            too_many);
  EXPECT_EQ(document(R"({"threads_per_circuit": 17, "jobs": 16})"),
            too_many);
  EXPECT_EQ(flags({"--jobs", "-1"}), "request: jobs must be non-negative");
  EXPECT_EQ(document(R"({"threads_per_circuit": -2})"),
            "request: threads_per_circuit must be non-negative");

  // At the ceiling is fine; 0 keeps meaning "one per hardware thread".
  EXPECT_EQ(flags({"--jobs", "16", "--threads-per-circuit", "16"}),
            "accepted");
  EXPECT_EQ(document(R"({"jobs": 0, "threads_per_circuit": 256})"),
            "accepted");
  EXPECT_EQ(flags({"--jobs", "0", "--threads-per-circuit", "0"}),
            "accepted");
}

TEST(RunOptions, FlagTextIsParsedStrictlyByKind) {
  EXPECT_EQ(refusal([] { from_argv({"--seed", " 5"}); }),
            "--seed expects a non-negative integer, got ' 5'");
  EXPECT_EQ(refusal([] { from_argv({"--jobs", "nope"}); }),
            "--jobs expects an integer, got 'nope'");
  EXPECT_EQ(refusal([] { from_argv({"--deadline-ms", "nan"}); }),
            "--deadline-ms expects a finite number, got 'nan'");
  EXPECT_EQ(refusal([] { from_argv({"--delay-budget", "inf"}); }),
            "--delay-budget expects a finite number, got 'inf'");
  EXPECT_EQ(refusal([] { from_argv({"--engine"}); }),
            "--engine needs a value");
}

TEST(RunOptions, OtherArgumentsAreNotRunOptions) {
  RunRequest request;
  for (const char* arg :
       {"c17", "--suite", "--out", "--gate-configs", "--keep_going", "-h"}) {
    const std::vector<std::string> args = {arg, "x"};
    EXPECT_EQ(apply_flag(request, args, 0), 0u) << arg;
  }
  EXPECT_EQ(render_request(request), render_request(RunRequest{}));
}

TEST(RunOptions, HelpListsEveryCommandLineOption) {
  const std::string help = options_help();
  for (const RunOption& row : run_options()) {
    if (!row.has_flag) continue;
    std::string flag = "--" + std::string(row.key);
    for (char& c : flag) c = c == '_' ? '-' : c;
    EXPECT_NE(help.find("  " + flag + " "), std::string::npos) << flag;
    EXPECT_NE(help.find(std::string(row.help)), std::string::npos) << flag;
  }
  EXPECT_NE(help.find("--fail-fast"), std::string::npos);
  EXPECT_NE(help.find("--no-gate-configs"), std::string::npos);
}

}  // namespace
}  // namespace tr::opt

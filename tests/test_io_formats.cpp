// Tests for the auxiliary interchange formats: activity files and
// structural Verilog, including the full write -> parse -> compare
// round-trip contracts for both.

#include <gtest/gtest.h>

#include <sstream>

#include "benchgen/generators.hpp"
#include "celllib/library.hpp"
#include "netlist/activity_io.hpp"
#include "netlist/verilog.hpp"
#include "opt/scenario.hpp"
#include "power/circuit_power.hpp"
#include "util/error.hpp"
#include "util/rng.hpp"

namespace tr::netlist {
namespace {

using celllib::CellLibrary;

CellLibrary& lib() {
  static CellLibrary instance = CellLibrary::standard();
  return instance;
}

/// Structural equality of two netlists by names (ids may differ):
/// same PIs/POs, same gates with the same cells and pin-order net
/// bindings, plus logic equivalence on random input vectors.
void expect_same_structure(const Netlist& a, const Netlist& b) {
  auto names = [&](const std::vector<NetId>& ids, const Netlist& nl) {
    std::vector<std::string> out;
    for (NetId id : ids) out.push_back(nl.net(id).name);
    return out;
  };
  EXPECT_EQ(a.name(), b.name());
  EXPECT_EQ(names(a.primary_inputs(), a), names(b.primary_inputs(), b));
  EXPECT_EQ(names(a.primary_outputs(), a), names(b.primary_outputs(), b));
  ASSERT_EQ(a.gate_count(), b.gate_count());
  for (GateId g = 0; g < a.gate_count(); ++g) {
    const GateInst& ga = a.gate(g);
    const GateInst& gb = b.gate(g);
    EXPECT_EQ(ga.name, gb.name);
    EXPECT_EQ(ga.cell, gb.cell);
    EXPECT_EQ(a.net(ga.output).name, b.net(gb.output).name);
    ASSERT_EQ(ga.inputs.size(), gb.inputs.size());
    for (std::size_t pin = 0; pin < ga.inputs.size(); ++pin) {
      EXPECT_EQ(a.net(ga.inputs[pin]).name, b.net(gb.inputs[pin]).name)
          << "gate " << ga.name << " pin " << pin;
    }
  }
  Rng rng(9);
  const std::size_t pis = a.primary_inputs().size();
  for (int trial = 0; trial < 16; ++trial) {
    std::vector<bool> vec;
    for (std::size_t i = 0; i < pis; ++i) vec.push_back(rng.bernoulli(0.5));
    EXPECT_EQ(a.evaluate(vec), b.evaluate(vec));
  }
}

TEST(ActivityIo, RoundTripsPrimaryInputStatistics) {
  const Netlist nl = benchgen::ripple_carry_adder(lib(), 4);
  const auto original = opt::scenario_a(nl, 17);

  // Serialise through the circuit-activity vector.
  std::vector<boolfn::SignalStats> net_stats(
      static_cast<std::size_t>(nl.net_count()));
  for (const auto& [id, s] : original) {
    net_stats[static_cast<std::size_t>(id)] = s;
  }
  std::ostringstream out;
  write_activity(nl, net_stats, out);

  std::istringstream in(out.str());
  const auto reloaded = read_activity(nl, in);
  ASSERT_EQ(reloaded.size(), original.size());
  for (const auto& [id, s] : original) {
    ASSERT_TRUE(reloaded.contains(id));
    EXPECT_NEAR(reloaded.at(id).prob, s.prob, 1e-6);
    EXPECT_NEAR(reloaded.at(id).density, s.density, 1e-2);
  }
}

TEST(ActivityIo, WholeCircuitDump) {
  const Netlist nl = benchgen::ripple_carry_adder(lib(), 2);
  const auto pi_stats = opt::scenario_b(nl);
  const auto activity = power::propagate_activity(nl, pi_stats);
  std::ostringstream out;
  write_activity(nl, activity.net_stats, out, /*all_nets=*/true);
  // One line per net plus two comment lines.
  int lines = 0;
  std::istringstream in(out.str());
  std::string line;
  while (std::getline(in, line)) ++lines;
  EXPECT_EQ(lines, nl.net_count() + 2);
}

TEST(ActivityIo, Errors) {
  const Netlist nl = benchgen::ripple_carry_adder(lib(), 2);
  const auto check_throws = [&](const char* text) {
    Netlist copy = nl;
    std::istringstream in(text);
    EXPECT_THROW(read_activity(copy, in), Error) << text;
  };
  check_throws("nosuchnet 0.5 1000\n");
  check_throws("s0 0.5 1000\n");            // not a primary input
  check_throws("a0 1.5 1000\n");            // probability out of range
  check_throws("a0 0.5 -3\n");              // negative density
  check_throws("a0 0.5\n");                 // arity
  check_throws("a0 zzz 1\n");               // malformed number

  check_throws("a0 0.5 1\na0 0.5 1\n");     // duplicate
  check_throws("a0 0.5 1\n");               // missing other PIs
}

TEST(ActivityIo, MalformedNumbersAreParseErrorsWithTheLine) {
  // Every token must be a whole finite number: a numeric prefix is not
  // a value, NaN would slip past the range checks, and an infinite
  // density is no density.
  const Netlist nl = benchgen::ripple_carry_adder(lib(), 2);
  for (const char* bad : {"0.5x", "1000x", "nan", "NaN", "inf", "-inf",
                          "infinity", "0x1p-1", "1e999"}) {
    for (int field = 1; field <= 2; ++field) {
      SCOPED_TRACE(testing::Message() << "token '" << bad << "' field "
                                      << field);
      std::ostringstream text;
      text << "# activity\n";
      int bad_line = 0;
      int line = 1;
      for (NetId id : nl.primary_inputs()) {
        ++line;
        const bool poison = bad_line == 0;
        if (poison) bad_line = line;
        text << nl.net(id).name << ' '
             << (poison && field == 1 ? bad : "0.5") << ' '
             << (poison && field == 2 ? bad : "1000") << '\n';
      }
      std::istringstream in(text.str());
      try {
        read_activity(nl, in, "act.txt");
        ADD_FAILURE() << "accepted a malformed number";
      } catch (const ParseError& e) {
        EXPECT_EQ(e.line(), bad_line);
        EXPECT_NE(std::string(e.what()).find("malformed number"),
                  std::string::npos)
            << e.what();
      }
    }
  }
}

TEST(Verilog, EmitsWellFormedModule) {
  const Netlist nl = benchgen::ripple_carry_adder(lib(), 2);
  std::ostringstream out;
  write_verilog(nl, out);
  const std::string text = out.str();
  EXPECT_NE(text.find("module rca2 ("), std::string::npos);
  EXPECT_NE(text.find("endmodule"), std::string::npos);
  EXPECT_NE(text.find("input a0;"), std::string::npos);
  EXPECT_NE(text.find("output s0;"), std::string::npos);
  // One instantiation per gate.
  std::size_t count = 0, pos = 0;
  while ((pos = text.find(".y(", pos)) != std::string::npos) {
    ++count;
    ++pos;
  }
  EXPECT_EQ(count, static_cast<std::size_t>(nl.gate_count()));
}

TEST(Verilog, SanitisesAwkwardNames) {
  Netlist nl(lib(), "weird-top");
  const NetId in = nl.add_net("3via[2].x");
  nl.mark_primary_input(in);
  const NetId out_net = nl.add_net("out!");
  nl.add_gate("u-1", "inv", {in}, out_net);
  nl.mark_primary_output(out_net);

  std::ostringstream out;
  write_verilog(nl, out);
  const std::string text = out.str();
  EXPECT_NE(text.find("module weird_top"), std::string::npos);
  EXPECT_NE(text.find("n3via_2__x"), std::string::npos);
  EXPECT_NE(text.find("out_"), std::string::npos);
  EXPECT_EQ(text.find("out!"), std::string::npos);  // no raw names leak
}

TEST(ActivityIo, RoundTripsRandomCircuitScenarios) {
  // The least-tested IO path under its real workloads: both scenario
  // generators over a random multilevel circuit survive the text format.
  benchgen::RandomCircuitSpec spec;
  spec.target_gates = 40;
  spec.primary_inputs = 12;
  spec.seed = 5;
  const Netlist nl = benchgen::random_circuit(lib(), spec);
  for (int scenario = 0; scenario < 2; ++scenario) {
    const auto original = scenario == 0 ? opt::scenario_a(nl, 33)
                                        : opt::scenario_b(nl, 1e6);
    std::vector<boolfn::SignalStats> net_stats(
        static_cast<std::size_t>(nl.net_count()));
    for (const auto& [id, s] : original) {
      net_stats[static_cast<std::size_t>(id)] = s;
    }
    std::ostringstream out;
    write_activity(nl, net_stats, out);
    std::istringstream in(out.str());
    const auto reloaded = read_activity(nl, in);
    ASSERT_EQ(reloaded.size(), original.size()) << "scenario " << scenario;
    for (const auto& [id, s] : original) {
      EXPECT_NEAR(reloaded.at(id).prob, s.prob, 1e-6);
      EXPECT_NEAR(reloaded.at(id).density, s.density, 1e-2);
    }
  }
}

TEST(ActivityIo, ToleratesCommentsAndBlankLines) {
  const Netlist nl = benchgen::ripple_carry_adder(lib(), 1);
  std::ostringstream text;
  text << "# header\n\n   \n";
  for (NetId id : nl.primary_inputs()) {
    text << "  " << nl.net(id).name << "   0.25\t1234.5  # inline? no\n";
  }
  // The trailing token makes the arity 4 -> the format has no inline
  // comments; drop the suffix and re-read cleanly.
  std::istringstream bad(text.str());
  EXPECT_THROW(read_activity(nl, bad), Error);
  std::ostringstream clean;
  clean << "# header\n\n   \n";
  for (NetId id : nl.primary_inputs()) {
    clean << "  " << nl.net(id).name << "   0.25\t1234.5\n";
  }
  std::istringstream in(clean.str());
  const auto stats = read_activity(nl, in);
  for (const auto& [id, s] : stats) {
    EXPECT_DOUBLE_EQ(s.prob, 0.25);
    EXPECT_DOUBLE_EQ(s.density, 1234.5);
  }
}

TEST(Verilog, NameCollisionsResolved) {
  Netlist nl(lib(), "collide");
  const NetId a = nl.add_net("sig a");
  const NetId b = nl.add_net("sig_a");
  nl.mark_primary_input(a);
  nl.mark_primary_input(b);
  const NetId y = nl.add_net("y");
  nl.add_gate("g", "nand2", {a, b}, y);
  nl.mark_primary_output(y);

  std::ostringstream out;
  write_verilog(nl, out);
  const std::string text = out.str();
  // Both inputs appear, distinctly.
  EXPECT_NE(text.find("input sig_a;"), std::string::npos);
  EXPECT_NE(text.find("input sig_a_1;"), std::string::npos);
}

TEST(Verilog, RoundTripsRippleCarryAdder) {
  const Netlist original = benchgen::ripple_carry_adder(lib(), 4);
  std::ostringstream out;
  write_verilog(original, out);
  std::istringstream in(out.str());
  const Netlist reloaded = read_verilog(lib(), in);
  expect_same_structure(original, reloaded);

  // write(read(write(nl))) == write(nl): the reader accepts exactly what
  // the writer emits and loses nothing the writer records.
  std::ostringstream again;
  write_verilog(reloaded, again);
  EXPECT_EQ(out.str(), again.str());
}

TEST(Verilog, RoundTripsRandomMultilevelCircuit) {
  benchgen::RandomCircuitSpec spec;
  spec.name = "rnd_rt";
  spec.target_gates = 60;
  spec.primary_inputs = 10;
  spec.seed = 21;
  const Netlist original = benchgen::random_circuit(lib(), spec);
  std::ostringstream out;
  write_verilog(original, out);
  std::istringstream in(out.str());
  const Netlist reloaded = read_verilog(lib(), in);
  expect_same_structure(original, reloaded);
  std::ostringstream again;
  write_verilog(reloaded, again);
  EXPECT_EQ(out.str(), again.str());
}

TEST(Verilog, RoundTripsPrimaryInputFedStraightOut) {
  // A PI that is also a PO cannot carry an `output` declaration in legal
  // Verilog; the writer's tr:primary_output directive must preserve the
  // marking across the round-trip.
  Netlist original(lib(), "passthrough");
  const NetId a = original.add_net("a");
  original.mark_primary_input(a);
  original.mark_primary_output(a);  // fed straight out
  const NetId b = original.add_net("b");
  original.mark_primary_input(b);
  const NetId y = original.add_net("y");
  original.add_gate("g", "nand2", {a, b}, y);
  original.mark_primary_output(y);

  std::ostringstream out;
  write_verilog(original, out);
  EXPECT_NE(out.str().find("// tr:primary_output a"), std::string::npos);
  std::istringstream in(out.str());
  const Netlist reloaded = read_verilog(lib(), in);
  expect_same_structure(original, reloaded);
  ASSERT_EQ(reloaded.primary_outputs().size(), 2u);
  EXPECT_TRUE(reloaded.net(reloaded.find_net("a")).is_primary_output);

  std::ostringstream again;
  write_verilog(reloaded, again);
  EXPECT_EQ(out.str(), again.str());
}

TEST(Verilog, ReaderHandlesCommentsAndWhitespace) {
  std::istringstream in(
      "// header comment\n"
      "// tr:primary_outputs are declared below (prose, not a directive)\n"
      "module /* inline */ top (a, b, y);\n"
      "  input a;\n\n"
      "  input b;\n"
      "  output y;\n"
      "  /* a block\n     spanning lines */\n"
      "  nand2 g0 (.a(a), .b(b),\n"
      "            .y(y));\n"
      "endmodule\n");
  const Netlist nl = read_verilog(lib(), in);
  EXPECT_EQ(nl.name(), "top");
  EXPECT_EQ(nl.gate_count(), 1);
  EXPECT_EQ(nl.primary_inputs().size(), 2u);
  EXPECT_EQ(nl.net(nl.primary_outputs().front()).name, "y");
}

TEST(Verilog, ReaderRejectsMalformedInput) {
  const auto check_throws = [&](const char* text) {
    std::istringstream in(text);
    EXPECT_THROW(read_verilog(lib(), in), Error) << text;
  };
  check_throws("");                                          // no module
  check_throws("module t (y); output y;\n");                 // no endmodule
  check_throws("module t (y); output y; endmodule trail");   // trailing
  check_throws("module t (a, y); input a; output y;\n"
               "bogus g (.a(a), .y(y)); endmodule");          // unknown cell
  check_throws("module t (a, y); input a; output y;\n"
               "inv g (.a(q), .y(y)); endmodule");            // undeclared net
  check_throws("module t (a, y); input a; output y;\n"
               "inv g (.z(a), .y(y)); endmodule");            // unknown pin
  check_throws("module t (a, y); input a; output y;\n"
               "inv g (.a(a)); endmodule");                   // missing .y
  check_throws("module t (a, y); input a; output y;\n"
               "nand2 g (.a(a), .a(a), .y(y)); endmodule");   // pin twice
  check_throws("module t (a, y); input a; output y; wire w;\n"
               "inv g (.y(w), .a(a), .y(y)); endmodule");     // output twice
  check_throws("module t (a, y); input a; input a; output y;\n"
               "inv g (.a(a), .y(y)); endmodule");            // net twice
  check_throws("module t (a, b, y); input a; output y;\n"
               "inv g (.a(a), .y(y)); endmodule");            // undeclared port
}

}  // namespace
}  // namespace tr::netlist

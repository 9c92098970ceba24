// Zero-allocation guard for the hot accessors. This binary replaces the
// global operator new with a counting one and asserts that many passing
// calls of the accessors the delay, search and simulation loops repeat
// per fanout, per move and per event — and the Elmore program evaluation
// the delay tables repeat per configuration — allocate nothing, in particular
// that no `require` guarding them builds its message eagerly.

#include <gtest/gtest.h>

#include <atomic>
#include <cstdlib>
#include <new>
#include <string>
#include <vector>

#include "benchgen/generators.hpp"
#include "boolfn/minterm_weights.hpp"
#include "celllib/catalog.hpp"
#include "celllib/library.hpp"
#include "netlist/netlist.hpp"
#include "util/error.hpp"

namespace {
std::atomic<std::size_t> g_allocations{0};

void* counted_alloc(std::size_t size) {
  g_allocations.fetch_add(1, std::memory_order_relaxed);
  if (void* p = std::malloc(size == 0 ? 1 : size)) return p;
  throw std::bad_alloc();
}
}  // namespace

void* operator new(std::size_t size) { return counted_alloc(size); }
void* operator new[](std::size_t size) { return counted_alloc(size); }
void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }
// The nothrow forms too (std::stable_sort's temporary buffer uses them
// and frees through the sized delete above), so every new pairs with
// this file's delete.
void* operator new(std::size_t size, const std::nothrow_t&) noexcept {
  g_allocations.fetch_add(1, std::memory_order_relaxed);
  return std::malloc(size == 0 ? 1 : size);
}
void* operator new[](std::size_t size, const std::nothrow_t& tag) noexcept {
  return operator new(size, tag);
}
void operator delete(void* p, const std::nothrow_t&) noexcept { std::free(p); }
void operator delete[](void* p, const std::nothrow_t&) noexcept {
  std::free(p);
}

namespace tr {
namespace {

constexpr int kRounds = 1000;

/// Allocations made while running `body`.
template <typename F>
std::size_t allocations_during(F&& body) {
  const std::size_t before = g_allocations.load(std::memory_order_relaxed);
  body();
  return g_allocations.load(std::memory_order_relaxed) - before;
}

class NoAlloc : public ::testing::Test {
protected:
  const celllib::CellLibrary library_ = celllib::CellLibrary::standard();
  const celllib::Tech tech_;
  const netlist::Netlist netlist_ =
      benchgen::ripple_carry_adder(library_, 8);
};

TEST_F(NoAlloc, CountingAllocatorSeesAllocations) {
  // The guard is live: an allocating body is counted.
  EXPECT_GT(allocations_during([] { std::vector<int> v(64, 1); }), 0u);
}

TEST_F(NoAlloc, NetlistGateNetAndExternalLoad) {
  double sink = 0.0;
  const std::size_t count = allocations_during([&] {
    for (int round = 0; round < kRounds; ++round) {
      for (netlist::GateId g = 0; g < netlist_.gate_count(); ++g) {
        const netlist::GateInst& inst = netlist_.gate(g);
        sink += static_cast<double>(netlist_.net(inst.output).fanouts.size());
        sink += netlist_.external_load(g, tech_);
      }
    }
  });
  EXPECT_EQ(count, 0u);
  EXPECT_GT(sink, 0.0);
}

TEST_F(NoAlloc, CellLookupAndPinCapacitance) {
  const std::vector<std::string> names = library_.cell_names();
  double sink = 0.0;
  const std::size_t count = allocations_during([&] {
    for (int round = 0; round < kRounds; ++round) {
      for (const std::string& name : names) {
        const celllib::Cell& cell = library_.cell(name);
        for (int pin = 0; pin < cell.input_count(); ++pin) {
          sink += cell.pin_capacitance(tech_, pin);
        }
      }
    }
  });
  EXPECT_EQ(count, 0u);
  EXPECT_GT(sink, 0.0);
}

TEST_F(NoAlloc, MintermWeightsSum) {
  const boolfn::MintermWeights weights({0.1, 0.3, 0.5, 0.7, 0.9, 0.2, 0.4});
  const boolfn::TruthTable f = boolfn::TruthTable::variable(7, 2) |
                               boolfn::TruthTable::variable(7, 6);
  double sink = 0.0;
  const std::size_t count = allocations_during([&] {
    for (int round = 0; round < kRounds; ++round) sink += weights.sum(f);
  });
  EXPECT_EQ(count, 0u);
  EXPECT_GT(sink, 0.0);
}

TEST_F(NoAlloc, ElmoreProgramEvaluation) {
  // The per-(catalog, load) delay tables evaluate every configuration's
  // compiled program into a pre-sized row: no scratch, no allocation.
  const auto catalog =
      library_.catalog(library_.cell("aoi22").topology());
  std::vector<double> pin_delay(
      static_cast<std::size_t>(catalog->input_count()));
  double sink = 0.0;
  const std::size_t count = allocations_during([&] {
    for (int round = 0; round < kRounds; ++round) {
      for (const celllib::CatalogConfig& config : catalog->configs()) {
        delay::evaluate_elmore(config.elmore, tech_, 8e-15, pin_delay);
        sink += pin_delay.front();
      }
    }
  });
  EXPECT_EQ(count, 0u);
  EXPECT_GT(sink, 0.0);
}

TEST_F(NoAlloc, PassingRequireBuildsNoMessage) {
  const std::size_t count = allocations_during([&] {
    for (int i = 0; i < kRounds; ++i) {
      require(i >= 0, "check " + std::to_string(i) +
                          " failed: a composed message past the SSO limit");
    }
  });
  EXPECT_EQ(count, 0u);
}

}  // namespace
}  // namespace tr

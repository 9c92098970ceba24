// Word-parallel truth-table evaluation (boolfn/word_eval.hpp): the
// Shannon lane evaluator, support probing and compaction are pinned
// against the scalar TruthTable semantics exhaustively over every
// variable count the simulation hot path stores as a single word, plus
// the batch seed fan-out backing the bit-parallel simulation lane.

#include <cstdint>
#include <vector>

#include <gtest/gtest.h>

#include "boolfn/truth_table.hpp"
#include "boolfn/word_eval.hpp"
#include "util/rng.hpp"

namespace {

using tr::Rng;
using tr::boolfn::TruthTable;
using tr::boolfn::eval_lanes;
using tr::boolfn::word_compact;
using tr::boolfn::word_full_mask;
using tr::boolfn::word_support;

/// The function word under test, masked to its n-variable extent.
std::uint64_t random_fn(Rng& rng, int n) {
  return rng.next_u64() & word_full_mask(n);
}

TEST(WordEval, FullMaskMatchesMintermCount) {
  for (int n = 0; n <= 6; ++n) {
    if (n == 6) {
      EXPECT_EQ(word_full_mask(6), ~std::uint64_t{0});
    } else {
      // 2^(2^n) fits in a word only below n = 6.
      const std::uint64_t minterms = std::uint64_t{1}
                                     << (std::uint64_t{1} << n);
      EXPECT_EQ(word_full_mask(n), minterms - 1) << "n=" << n;
    }
  }
}

TEST(WordEval, LanesMatchScalarEvaluationExhaustively) {
  Rng rng(0xe7a1);
  for (int n = 0; n <= 6; ++n) {
    for (int rep = 0; rep < 64; ++rep) {
      std::uint64_t fn = random_fn(rng, n);
      if (rep == 0) fn = 0;
      if (rep == 1) fn = word_full_mask(n);
      // 64 random lane minterms, transposed into pin words.
      std::uint64_t minterm[64];
      std::uint64_t pins[6] = {0, 0, 0, 0, 0, 0};
      for (int k = 0; k < 64; ++k) {
        minterm[k] = n > 0 ? rng.next_below(std::uint64_t{1} << n) : 0;
        for (int j = 0; j < n; ++j) {
          pins[j] |= ((minterm[k] >> j) & 1u) << k;
        }
      }
      const std::uint64_t out = eval_lanes(fn, pins, n);
      for (int k = 0; k < 64; ++k) {
        EXPECT_EQ((out >> k) & 1u, (fn >> minterm[k]) & 1u)
            << "n=" << n << " rep=" << rep << " lane=" << k;
      }
    }
  }
}

TEST(WordEval, SupportMatchesTruthTable) {
  Rng rng(0x50bb);
  for (int n = 0; n <= 6; ++n) {
    for (int rep = 0; rep < 64; ++rep) {
      const std::uint64_t fn = random_fn(rng, n);
      std::vector<bool> bits;
      for (std::uint64_t m = 0; m < (std::uint64_t{1} << n); ++m) {
        bits.push_back(((fn >> m) & 1u) != 0);
      }
      const TruthTable table = TruthTable::from_bits(n, bits);
      std::uint32_t expected = 0;
      for (int var : table.support()) expected |= std::uint32_t{1} << var;
      EXPECT_EQ(word_support(fn, n), expected) << "n=" << n << " rep=" << rep;
    }
  }
}

TEST(WordEval, CompactionMatchesTruthTableAndPreservesEvaluation) {
  Rng rng(0xc033);
  for (int n = 1; n <= 6; ++n) {
    for (int rep = 0; rep < 64; ++rep) {
      // Force vacuous variables by composing a narrower function into a
      // random subset of the n positions.
      const std::uint32_t support_mask =
          static_cast<std::uint32_t>(rng.next_u64()) & ((1u << n) - 1);
      int vars[6];
      int k = 0;
      for (int j = 0; j < n; ++j) {
        if ((support_mask >> j) & 1u) vars[k++] = j;
      }
      const std::uint64_t narrow = random_fn(rng, k);
      std::uint64_t fn = 0;
      for (std::uint64_t m = 0; m < (std::uint64_t{1} << n); ++m) {
        std::uint64_t compact = 0;
        for (int i = 0; i < k; ++i) compact |= ((m >> vars[i]) & 1u) << i;
        fn |= ((narrow >> compact) & 1u) << m;
      }
      const std::uint32_t support = word_support(fn, n);
      EXPECT_EQ(support & ~support_mask, 0u);
      // Compacting onto the (possibly over-wide) embedding mask must
      // recover the narrow function exactly.
      EXPECT_EQ(word_compact(fn, n, support_mask), narrow)
          << "n=" << n << " rep=" << rep;
      // And the scalar TruthTable agrees on the true-support compaction.
      std::vector<bool> bits;
      for (std::uint64_t m = 0; m < (std::uint64_t{1} << n); ++m) {
        bits.push_back(((fn >> m) & 1u) != 0);
      }
      const TruthTable table = TruthTable::from_bits(n, bits);
      const TruthTable compacted = table.compacted(table.support());
      const std::uint64_t compact_fn = word_compact(fn, n, support);
      for (std::uint64_t m = 0; m < compacted.minterm_count(); ++m) {
        EXPECT_EQ(((compact_fn >> m) & 1u) != 0, compacted.value_at(m));
      }
    }
  }
}

TEST(WordEval, DeriveStreamsMatchesScalarDeriveStream) {
  const std::uint64_t seeds[] = {0, 1, 42, 0x9e3779b97f4a7c15ULL,
                                 ~std::uint64_t{0}};
  for (std::uint64_t seed : seeds) {
    for (std::uint64_t first : {std::uint64_t{0}, std::uint64_t{7},
                                std::uint64_t{64}, std::uint64_t{1} << 40}) {
      std::uint64_t batch[64];
      Rng::derive_streams(seed, first, batch, 64);
      for (std::uint64_t i = 0; i < 64; ++i) {
        EXPECT_EQ(batch[i], Rng::derive_stream(seed, first + i))
            << "seed=" << seed << " first=" << first << " i=" << i;
      }
    }
  }
}

}  // namespace

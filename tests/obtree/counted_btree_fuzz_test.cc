// Randomized differential test: the counted B+-tree against a std::map
// reference model, parameterized over node order.

#include <gtest/gtest.h>

#include <map>
#include <vector>

#include "common/random.h"
#include "obtree/counted_btree.h"
#include "single_key_writes.h"

namespace ltree {
namespace obtree {
namespace {

class BTreeFuzzTest : public ::testing::TestWithParam<uint32_t> {};

TEST_P(BTreeFuzzTest, MatchesReferenceModel) {
  const uint32_t order = GetParam();
  CountedBTree tree(order);
  std::map<Label, uint64_t> model;
  Rng rng(order * 7919 + 13);

  const int kOps = 4000;
  const uint64_t kKeySpace = 500;  // small key space => many collisions
  for (int op = 0; op < kOps; ++op) {
    const uint64_t key = rng.Uniform(kKeySpace);
    const uint64_t action = rng.Uniform(10);
    if (action < 5) {
      // Insert, or overwrite a present key.
      ASSERT_TRUE(Put(&tree, key, op).ok());
      model[key] = static_cast<uint64_t>(op);
      ASSERT_EQ(tree.size(), model.size()) << "op " << op;
    } else if (action < 8) {
      // Erase; a no-op when the key is absent.
      ASSERT_TRUE(Erase(&tree, key).ok());
      model.erase(key);
      ASSERT_EQ(tree.size(), model.size()) << "op " << op;
    } else if (action < 9) {
      Status st = tree.Update(key, op + 1000000);
      if (model.count(key) > 0) {
        EXPECT_TRUE(st.ok());
        model[key] = static_cast<uint64_t>(op + 1000000);
      } else {
        EXPECT_TRUE(st.IsNotFound());
      }
    } else {
      // Point queries.
      auto found = tree.Lookup(key);
      auto it = model.find(key);
      if (it == model.end()) {
        EXPECT_FALSE(found.ok());
      } else {
        ASSERT_TRUE(found.ok());
        EXPECT_EQ(*found, it->second);
      }
    }

    if (op % 200 == 0) {
      ASSERT_TRUE(tree.Validate().ok())
          << "op " << op << ": " << tree.Validate().ToString();
      ASSERT_EQ(tree.size(), model.size());
      // Order statistics agree with the model.
      const uint64_t probe = rng.Uniform(kKeySpace + 10);
      uint64_t model_less = 0;
      for (const auto& [k, v] : model) {
        if (k < probe) ++model_less;
      }
      EXPECT_EQ(tree.CountLess(probe), model_less) << "probe " << probe;
    }
  }

  // Final full comparison.
  ASSERT_TRUE(tree.Validate().ok()) << tree.Validate().ToString();
  auto entries = tree.ScanAll();
  ASSERT_EQ(entries.size(), model.size());
  size_t i = 0;
  for (const auto& [k, v] : model) {
    EXPECT_EQ(entries[i].key, k);
    EXPECT_EQ(entries[i].value, v);
    ++i;
  }
  // Select agrees with scan order.
  for (uint64_t r = 0; r < entries.size(); ++r) {
    auto e = tree.Select(r);
    ASSERT_TRUE(e.ok());
    EXPECT_EQ(e->key, entries[r].key);
  }
}

TEST_P(BTreeFuzzTest, ReplaceRangeMatchesModel) {
  const uint32_t order = GetParam();
  CountedBTree tree(order);
  std::map<Label, uint64_t> model;
  Rng rng(order * 104729 + 7);

  // Seed with spread-out keys.
  for (uint64_t i = 0; i < 300; ++i) {
    const Label key = i * 100;
    ASSERT_TRUE(Put(&tree, key, i).ok());
    model[key] = i;
  }

  for (int round = 0; round < 50; ++round) {
    const Label lo = rng.Uniform(30000);
    // Occasionally an empty range (lo == hi): must be a no-op.
    const Label hi = round % 10 == 9 ? lo : lo + 1 + rng.Uniform(5000);
    // Generate replacement entries within [lo, hi).
    std::vector<Entry> repl;
    const uint64_t n = rng.Uniform(20);
    Label k = lo;
    for (uint64_t i = 0; i < n && k < hi; ++i) {
      repl.push_back({k, round * 1000 + i});
      k += 1 + rng.Uniform((hi - lo) / 10 + 1);
    }
    ASSERT_TRUE(tree.ReplaceRange(lo, hi, repl).ok());
    model.erase(model.lower_bound(lo), model.lower_bound(hi));
    for (const Entry& e : repl) model[e.key] = e.value;

    ASSERT_TRUE(tree.Validate().ok())
        << "round " << round << ": " << tree.Validate().ToString();
    ASSERT_EQ(tree.size(), model.size()) << "round " << round;
  }
  auto entries = tree.ScanAll();
  size_t i = 0;
  for (const auto& [k, v] : model) {
    ASSERT_EQ(entries[i].key, k);
    ASSERT_EQ(entries[i].value, v);
    ++i;
  }
}

INSTANTIATE_TEST_SUITE_P(Orders, BTreeFuzzTest,
                         ::testing::Values(4, 6, 8, 16, 64),
                         [](const auto& info) {
                           return "order" + std::to_string(info.param);
                         });

}  // namespace
}  // namespace obtree
}  // namespace ltree

#include <gtest/gtest.h>

#include <set>
#include <string>
#include <vector>

#include "util/key_interner.h"
#include "util/rng.h"
#include "util/serde.h"
#include "util/types.h"
#include "util/zipf.h"

namespace tordb {
namespace {

TEST(Types, ActionIdOrdering) {
  ActionId a{1, 5};
  ActionId b{1, 6};
  ActionId c{2, 1};
  EXPECT_LT(a, b);
  EXPECT_LT(b, c);
  EXPECT_EQ(a, (ActionId{1, 5}));
}

TEST(Types, ConfigIdOrdering) {
  ConfigId a{3, 7};
  ConfigId b{4, 1};
  EXPECT_LT(a, b);  // counter dominates
  EXPECT_LT((ConfigId{4, 0}), (ConfigId{4, 1}));
}

TEST(Types, DurationHelpers) {
  EXPECT_EQ(millis(1), micros(1000));
  EXPECT_EQ(seconds(1), millis(1000));
  EXPECT_DOUBLE_EQ(to_millis(millis(5)), 5.0);
  EXPECT_DOUBLE_EQ(to_seconds(seconds(2)), 2.0);
}

TEST(Types, ToStringFormats) {
  EXPECT_EQ(to_string(ActionId{3, 42}), "a(3:42)");
  EXPECT_EQ(to_string(ConfigId{9, 2}), "c(9@2)");
}

TEST(Rng, Deterministic) {
  Rng a(123), b(123);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a.next_u64(), b.next_u64());
}

TEST(Rng, DifferentSeedsDiffer) {
  Rng a(1), b(2);
  int same = 0;
  for (int i = 0; i < 64; ++i) {
    if (a.next_u64() == b.next_u64()) ++same;
  }
  EXPECT_LT(same, 2);
}

TEST(Rng, NextBelowInRange) {
  Rng r(7);
  for (int i = 0; i < 1000; ++i) EXPECT_LT(r.next_below(17), 17u);
}

TEST(Rng, NextRangeInclusive) {
  Rng r(9);
  std::set<std::int64_t> seen;
  for (int i = 0; i < 2000; ++i) {
    auto v = r.next_range(-2, 3);
    EXPECT_GE(v, -2);
    EXPECT_LE(v, 3);
    seen.insert(v);
  }
  EXPECT_EQ(seen.size(), 6u);  // all values hit
}

TEST(Rng, DoubleInUnitInterval) {
  Rng r(11);
  for (int i = 0; i < 1000; ++i) {
    const double d = r.next_double();
    EXPECT_GE(d, 0.0);
    EXPECT_LT(d, 1.0);
  }
}

TEST(Rng, ForkIndependent) {
  Rng parent(5);
  Rng c1 = parent.fork();
  Rng c2 = parent.fork();
  EXPECT_NE(c1.next_u64(), c2.next_u64());
}

TEST(Serde, RoundTripScalars) {
  BufWriter w;
  w.u8(0xab);
  w.u32(0xdeadbeef);
  w.u64(0x0123456789abcdefULL);
  w.i32(-42);
  w.i64(-1'000'000'000'000LL);
  w.boolean(true);
  w.boolean(false);
  Bytes b = w.take();

  BufReader r(b);
  EXPECT_EQ(r.u8(), 0xab);
  EXPECT_EQ(r.u32(), 0xdeadbeefu);
  EXPECT_EQ(r.u64(), 0x0123456789abcdefULL);
  EXPECT_EQ(r.i32(), -42);
  EXPECT_EQ(r.i64(), -1'000'000'000'000LL);
  EXPECT_TRUE(r.boolean());
  EXPECT_FALSE(r.boolean());
  EXPECT_TRUE(r.done());
}

TEST(Serde, RoundTripStringsAndBytes) {
  BufWriter w;
  w.str("hello world");
  w.str("");
  w.bytes(Bytes{1, 2, 3, 255});
  Bytes b = w.take();

  BufReader r(b);
  EXPECT_EQ(r.str(), "hello world");
  EXPECT_EQ(r.str(), "");
  EXPECT_EQ(r.bytes(), (Bytes{1, 2, 3, 255}));
  EXPECT_TRUE(r.done());
}

TEST(Serde, RoundTripIds) {
  BufWriter w;
  w.action_id(ActionId{7, 99});
  w.config_id(ConfigId{12, 3});
  w.node_ids({1, 2, 5});
  Bytes b = w.take();

  BufReader r(b);
  EXPECT_EQ(r.action_id(), (ActionId{7, 99}));
  EXPECT_EQ(r.config_id(), (ConfigId{12, 3}));
  EXPECT_EQ(r.node_ids(), (std::vector<NodeId>{1, 2, 5}));
}

TEST(Serde, UnderrunThrows) {
  BufWriter w;
  w.u32(1);
  Bytes b = w.take();
  BufReader r(b);
  r.u32();
  EXPECT_THROW(r.u64(), SerdeError);
}

TEST(Serde, StringUnderrunThrows) {
  BufWriter w;
  w.u32(100);  // claims 100 bytes follow; none do
  Bytes b = w.take();
  BufReader r(b);
  EXPECT_THROW(r.str(), SerdeError);
}

TEST(KeyInterner, KeysSharingTheSlotHeadStayDistinct) {
  // Slots hold a key's length and first 8 bytes; keys that agree on both
  // (or on the head only) must still get their own ids, across growth.
  util::KeyInterner in;
  const std::vector<std::string> keys = {"",          "a",         "abcdefgh",  "abcdefghX",
                                         "abcdefghY", "abcdefgh1", "abcdefg",   "abcdefghXY",
                                         "bbcdefgh",  "abcdefgi"};
  std::vector<util::KeyId> ids;
  for (const std::string& k : keys) ids.push_back(in.intern(k));
  for (int i = 0; i < 500; ++i) in.intern("abcdefgh" + std::to_string(i));  // forces growth
  EXPECT_GT(in.rehashes(), 0u);
  std::set<util::KeyId> distinct(ids.begin(), ids.end());
  EXPECT_EQ(distinct.size(), keys.size());
  for (std::size_t i = 0; i < keys.size(); ++i) {
    EXPECT_EQ(in.find(keys[i]), ids[i]) << keys[i];
    EXPECT_EQ(in.intern(keys[i]), ids[i]) << keys[i];
    EXPECT_EQ(in.key(ids[i]), keys[i]);
  }
  EXPECT_EQ(in.find("abcdefghZ"), util::kNoKeyId);
  EXPECT_EQ(in.find("abcdefgh1000"), util::kNoKeyId);
}

TEST(Zipf, Deterministic) {
  util::ZipfGenerator za(100, 0.99);
  util::ZipfGenerator zb(100, 0.99);
  Rng a(42), b(42);
  for (int i = 0; i < 1000; ++i) EXPECT_EQ(za.next(a), zb.next(b));
}

TEST(Zipf, BoundsRespected) {
  for (const double theta : {0.0, 0.5, 0.99, 1.2}) {
    util::ZipfGenerator z(17, theta);
    Rng r(7);
    for (int i = 0; i < 5000; ++i) EXPECT_LT(z.next(r), 17u) << "theta=" << theta;
  }
}

TEST(Zipf, SingleElement) {
  util::ZipfGenerator z(1, 1.1);
  Rng r(3);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(z.next(r), 0u);
}

TEST(Zipf, ThetaZeroIsUniform) {
  // theta == 0 degenerates to next_below: every rank roughly equally likely.
  util::ZipfGenerator z(10, 0.0);
  Rng r(11);
  std::vector<int> counts(10, 0);
  const int draws = 20000;
  for (int i = 0; i < draws; ++i) ++counts[static_cast<std::size_t>(z.next(r))];
  for (const int c : counts) {
    EXPECT_GT(c, draws / 10 / 2);
    EXPECT_LT(c, draws / 10 * 2);
  }
}

TEST(Zipf, SkewConcentratesOnLowRanks) {
  // With theta near 1 the head ranks dominate; heavier theta dominates more.
  const int draws = 20000;
  auto head_share = [&](double theta) {
    util::ZipfGenerator z(1000, theta);
    Rng r(5);
    int head = 0;
    for (int i = 0; i < draws; ++i) {
      if (z.next(r) < 10) ++head;
    }
    return static_cast<double>(head) / draws;
  };
  const double mild = head_share(0.5);
  const double heavy = head_share(1.2);
  EXPECT_GT(mild, 0.05);   // far above uniform's 1%
  EXPECT_GT(heavy, mild);  // skew grows with theta
  EXPECT_GT(heavy, 0.5);   // rank 0..9 of 1000 dominates at theta 1.2
}

TEST(Zipf, InvalidArgsThrow) {
  EXPECT_THROW(util::ZipfGenerator(0, 1.0), std::invalid_argument);
  EXPECT_THROW(util::ZipfGenerator(10, -0.1), std::invalid_argument);
}

}  // namespace
}  // namespace tordb

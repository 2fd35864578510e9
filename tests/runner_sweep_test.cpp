#include "runner/sweep.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <functional>
#include <sstream>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "runner/json.hpp"

namespace perigee::runner {
namespace {

// Small-but-real config: large enough for every algorithm to run, small
// enough that a grid finishes in well under a second per cell.
SweepSpec small_spec() {
  SweepSpec spec;
  spec.name = "test";
  spec.base.net.n = 60;
  spec.base.rounds = 2;
  spec.base.seed = 7;
  spec.seeds = 3;
  spec.algorithms = {core::Algorithm::Random, core::Algorithm::PerigeeSubset,
                     core::Algorithm::Ideal};
  return spec;
}

TEST(ExpandGrid, CartesianCountAndOrder) {
  SweepSpec spec = small_spec();
  spec.nodes = {40, 60};
  spec.rounds = {1, 2};
  const auto cells = expand_grid(spec);
  // 3 algorithms x 2 nodes x 2 rounds, algorithm outermost.
  ASSERT_EQ(cells.size(), 12u);
  EXPECT_EQ(cells[0].config.algorithm, core::Algorithm::Random);
  EXPECT_EQ(cells[0].config.net.n, 40u);
  EXPECT_EQ(cells[0].config.rounds, 1);
  EXPECT_EQ(cells[1].config.rounds, 2);
  EXPECT_EQ(cells[2].config.net.n, 60u);
  EXPECT_EQ(cells[4].config.algorithm, core::Algorithm::PerigeeSubset);
  for (std::size_t i = 0; i < cells.size(); ++i) {
    EXPECT_EQ(cells[i].index, i);
  }
}

TEST(ExpandGrid, LabelsNameOnlySweptAxes) {
  SweepSpec spec = small_spec();
  spec.nodes = {40, 60};
  const auto cells = expand_grid(spec);
  EXPECT_EQ(cells[0].label, "algorithm=random n=40");
  EXPECT_EQ(cells[3].label, "algorithm=perigee-subset n=60");
}

TEST(ExpandGrid, UnsweptSpecYieldsOneBaseCell) {
  SweepSpec spec;
  spec.base.net.n = 50;
  const auto cells = expand_grid(spec);
  ASSERT_EQ(cells.size(), 1u);
  EXPECT_EQ(cells[0].label, "base");
  EXPECT_EQ(cells[0].config.net.n, 50u);
}

TEST(SweepRunner, JobCountDoesNotChangeResults) {
  const SweepSpec spec = small_spec();
  const SweepResult sequential = SweepRunner(1).run(spec);
  const SweepResult parallel = SweepRunner(8).run(spec);

  ASSERT_EQ(sequential.cells.size(), parallel.cells.size());
  for (std::size_t c = 0; c < sequential.cells.size(); ++c) {
    EXPECT_EQ(sequential.cells[c].cell.label, parallel.cells[c].cell.label);
    // Bit-for-bit: the parallel path must be the sequential path, reordered.
    EXPECT_EQ(sequential.cells[c].curve.mean, parallel.cells[c].curve.mean);
    EXPECT_EQ(sequential.cells[c].curve.stddev,
              parallel.cells[c].curve.stddev);
    EXPECT_EQ(sequential.cells[c].curve50.mean,
              parallel.cells[c].curve50.mean);
  }

  // And so must the serialized artifacts, byte for byte.
  std::ostringstream a, b;
  write_json(a, spec, sequential);
  write_json(b, spec, parallel);
  EXPECT_EQ(a.str(), b.str());
}

// The benchmark's `learn` grid shape: UCB, subset, vanilla and random over
// two seeds, UCB's rounds × |B| single-block rounds making it the critical
// job.
SweepSpec learn_shaped_spec(std::size_t n) {
  SweepSpec spec;
  spec.name = "learn-shaped";
  spec.algorithms = {core::Algorithm::PerigeeUcb,
                     core::Algorithm::PerigeeSubset,
                     core::Algorithm::PerigeeVanilla, core::Algorithm::Random};
  spec.nodes = {n};
  spec.rounds = {2};
  spec.base.blocks_per_round = 10;
  spec.base.seed = 7;
  spec.seeds = 2;
  return spec;
}

TEST(JobOrder, CriticalJobsFirstAndAPermutationPerShard) {
  const SweepSpec spec = learn_shaped_spec(1000);
  const auto cells = expand_grid(spec);
  const auto seeds = static_cast<std::size_t>(spec.seeds);
  const std::vector<std::size_t> order = job_order(cells, seeds);
  ASSERT_EQ(order.size(), cells.size() * seeds);
  // Both UCB jobs (cell 0) lead, in seed order.
  EXPECT_EQ(order[0], 0u);
  EXPECT_EQ(order[1], 1u);
  // Subset and vanilla tie on cost and keep grid order; random runs no
  // selector and goes last.
  EXPECT_EQ(order, (std::vector<std::size_t>{0, 1, 2, 3, 4, 5, 6, 7}));
  EXPECT_EQ(job_order(cells, seeds), order);  // deterministic

  for (const std::size_t shards : {1u, 2u, 3u}) {
    for (std::size_t shard = 0; shard < shards; ++shard) {
      std::vector<std::size_t> claimed;
      for (const std::size_t j : order) {
        if (j % shards == shard) claimed.push_back(j);
      }
      std::vector<std::size_t> expect;
      for (std::size_t j = 0; j < order.size(); ++j) {
        if (j % shards == shard) expect.push_back(j);
      }
      std::sort(claimed.begin(), claimed.end());
      EXPECT_EQ(claimed, expect) << shard << "/" << shards;
    }
  }
}

TEST(JobOrder, CostOrderOverridesGridOrder) {
  // UCB declared last still comes first; static cells without churn tie at
  // zero and keep grid order.
  SweepSpec spec = learn_shaped_spec(100);
  spec.algorithms = {core::Algorithm::Random, core::Algorithm::Ideal,
                     core::Algorithm::PerigeeSubset,
                     core::Algorithm::PerigeeUcb};
  spec.seeds = 1;
  const auto order =
      job_order(expand_grid(spec), static_cast<std::size_t>(spec.seeds));
  EXPECT_EQ(order, (std::vector<std::size_t>{3, 2, 0, 1}));
}

TEST(SweepRunner, ClaimOrderKeepsBytesAcrossWorkerCounts) {
  const SweepSpec spec = learn_shaped_spec(60);
  std::ostringstream one, four;
  write_json(one, spec, SweepRunner(1).run(spec));
  write_json(four, spec, SweepRunner(4).run(spec));
  EXPECT_EQ(one.str(), four.str());
}

TEST(SweepRunner, MultiSeedMatchesCoreApi) {
  SweepSpec spec = small_spec();
  spec.algorithms = {core::Algorithm::PerigeeSubset};
  const SweepResult result = SweepRunner(4).run(spec);
  ASSERT_EQ(result.cells.size(), 1u);

  core::ExperimentConfig config = spec.base;
  config.algorithm = core::Algorithm::PerigeeSubset;
  const auto reference = core::run_multi_seed(config, spec.seeds, 1);
  EXPECT_EQ(result.cells[0].curve.mean, reference.curve.mean);
  EXPECT_EQ(result.cells[0].curve50.mean, reference.curve50.mean);
}

TEST(SweepRunner, ProgressReachesTotal) {
  SweepSpec spec = small_spec();
  spec.algorithms = {core::Algorithm::Random};
  std::atomic<std::size_t> last{0};
  std::atomic<std::size_t> calls{0};
  SweepRunner(2).run(spec, [&](std::size_t done, std::size_t total) {
    calls.fetch_add(1);
    if (done == total) last.store(done);
  });
  EXPECT_EQ(calls.load(), 3u);  // 1 cell x 3 seeds
  EXPECT_EQ(last.load(), 3u);
}

TEST(SweepRunner, RejectsCoverageOutsideUnitIntervalBeforeAnyJob) {
  for (const double coverage : {2.0, 0.0, -0.5, std::nan("")}) {
    SweepSpec spec = small_spec();
    spec.base.coverage = coverage;
    EXPECT_THROW(expand_grid(spec), std::invalid_argument) << coverage;
    std::atomic<std::size_t> calls{0};
    EXPECT_THROW(SweepRunner(2).run(spec,
                                    [&](std::size_t, std::size_t) {
                                      calls.fetch_add(1);
                                    }),
                 std::invalid_argument)
        << coverage;
    EXPECT_EQ(calls.load(), 0u) << coverage;
  }
  SweepSpec spec = small_spec();
  spec.base.coverage = 1.0;
  EXPECT_EQ(expand_grid(spec).size(), 3u);
}

// One bad value per validated field: expand_grid throws before any job runs
// and names the field in its message.
TEST(ExpandGrid, RejectsEachBadConfigFieldWithAMessage) {
  using Mutate = std::function<void(SweepSpec&)>;
  const std::vector<std::pair<std::string, Mutate>> cases = {
      {"n 1", [](SweepSpec& s) { s.base.net.n = 1; }},
      {"n 0", [](SweepSpec& s) { s.nodes = {40, 0}; }},
      {"rounds", [](SweepSpec& s) { s.base.rounds = -1; }},
      {"rounds", [](SweepSpec& s) { s.rounds = {2, -3}; }},
      {"blocks_per_round", [](SweepSpec& s) { s.base.blocks_per_round = 0; }},
      {"checkpoints", [](SweepSpec& s) { s.base.checkpoints = -1; }},
      {"keep", [](SweepSpec& s) { s.base.params.keep = 9; }},
      {"percentile", [](SweepSpec& s) { s.base.params.percentile = 1.5; }},
      {"pool_fraction", [](SweepSpec& s) { s.base.pools.pool_fraction = -0.1; }},
      {"pool_share", [](SweepSpec& s) { s.base.pools.pool_share = 2.0; }},
      {"jitter_frac", [](SweepSpec& s) { s.base.net.jitter_frac = 1.0; }},
      {"churn rate", [](SweepSpec& s) { s.churn_rates = {0.1, 1.5}; }},
      {"fast_fraction",
       [](SweepSpec& s) { s.base.scenario.hetero.fast_fraction = 1.2; }},
      {"fast_hash_share",
       [](SweepSpec& s) { s.base.scenario.hetero.fast_hash_share = -1.0; }},
      {"geo concentration",
       [](SweepSpec& s) { s.base.scenario.geo.concentration = std::nan(""); }},
      {"withhold_fraction", [](SweepSpec& s) { s.withhold_fractions = {2.0}; }},
  };
  for (const auto& [field, mutate] : cases) {
    SCOPED_TRACE(field);
    SweepSpec spec = small_spec();
    mutate(spec);
    try {
      expand_grid(spec);
      ADD_FAILURE() << "accepted a bad " << field;
    } catch (const std::invalid_argument& e) {
      EXPECT_NE(std::string(e.what()).find(field), std::string::npos)
          << e.what();
    }
  }
}

TEST(ExpandGrid, AcceptsBoundaryValues) {
  SweepSpec spec = small_spec();
  spec.base.net.n = 2;
  spec.base.rounds = 0;
  spec.base.blocks_per_round = 1;
  spec.base.params.keep = spec.base.limits.out_cap;
  spec.base.params.percentile = 1.0;
  spec.churn_rates = {0.0, 1.0};
  spec.withhold_fractions = {0.0};
  EXPECT_EQ(expand_grid(spec).size(), 6u);
}

TEST(SweepJson, RoundTripsThroughParser) {
  const SweepSpec spec = small_spec();
  const SweepResult result = SweepRunner(2).run(spec);
  std::ostringstream os;
  write_json(os, spec, result);

  const JsonValue doc = JsonValue::parse(os.str());
  ASSERT_EQ(doc.kind, JsonValue::Kind::Object);
  EXPECT_EQ(doc.find("name")->string, "test");
  EXPECT_DOUBLE_EQ(doc.find("spec")->find("seeds")->number, 3.0);
  EXPECT_DOUBLE_EQ(doc.find("spec")->find("base_seed")->number, 7.0);

  const JsonValue* cells = doc.find("cells");
  ASSERT_NE(cells, nullptr);
  ASSERT_EQ(cells->items.size(), result.cells.size());
  for (std::size_t c = 0; c < result.cells.size(); ++c) {
    const JsonValue& cell = cells->items[c];
    EXPECT_EQ(cell.find("label")->string, result.cells[c].cell.label);
    const JsonValue* mean = cell.find("curve")->find("mean");
    ASSERT_NE(mean, nullptr);
    ASSERT_EQ(mean->items.size(), result.cells[c].curve.mean.size());
    for (std::size_t i = 0; i < mean->items.size(); ++i) {
      // to_chars shortest form parses back to the exact same double.
      EXPECT_EQ(mean->items[i].number, result.cells[c].curve.mean[i]);
    }
  }
}

TEST(JsonWriter, EscapesAndNesting) {
  std::ostringstream os;
  JsonWriter w(os, 0);
  w.begin_object();
  w.field("s", "a\"b\\c\nd");
  w.field("t", true);
  w.field("f", false);
  w.key("arr");
  w.begin_array();
  w.value(static_cast<std::int64_t>(-3));
  w.value(0.5);
  w.null();
  w.end_array();
  w.end_object();
  EXPECT_EQ(os.str(),
            R"({"s":"a\"b\\c\nd","t":true,"f":false,"arr":[-3,0.5,null]})");

  const JsonValue doc = JsonValue::parse(os.str());
  EXPECT_EQ(doc.find("s")->string, "a\"b\\c\nd");
  EXPECT_TRUE(doc.find("t")->boolean);
  EXPECT_EQ(doc.find("arr")->items.size(), 3u);
  EXPECT_EQ(doc.find("arr")->items[2].kind, JsonValue::Kind::Null);
}

TEST(JsonWriter, NonFiniteBecomesNull) {
  std::ostringstream os;
  JsonWriter w(os, 0);
  w.begin_array();
  w.value(std::numeric_limits<double>::infinity());
  w.value(std::numeric_limits<double>::quiet_NaN());
  w.end_array();
  EXPECT_EQ(os.str(), "[null,null]");
}

TEST(JsonParser, RejectsMalformedInput) {
  EXPECT_THROW(JsonValue::parse("{"), std::runtime_error);
  EXPECT_THROW(JsonValue::parse("[1,]2"), std::runtime_error);
  EXPECT_THROW(JsonValue::parse("tru"), std::runtime_error);
  EXPECT_THROW(JsonValue::parse("{\"a\" 1}"), std::runtime_error);
  EXPECT_THROW(JsonValue::parse("1 2"), std::runtime_error);
}

TEST(JsonParser, DecodesUnicodeEscapesToUtf8) {
  // ASCII range.
  EXPECT_EQ(JsonValue::parse("\"\\u0041\\u007a\"").string, "Az");
  // Two-byte sequence (é, U+00E9) — the bytes JsonWriter would emit raw, so
  // an escaped spelling parses to the same std::string as the raw one.
  EXPECT_EQ(JsonValue::parse("\"caf\\u00e9\"").string, "caf\xc3\xa9");
  EXPECT_EQ(JsonValue::parse("\"caf\\u00e9\"").string,
            JsonValue::parse("\"caf\xc3\xa9\"").string);
  // Three-byte sequence (€, U+20AC).
  EXPECT_EQ(JsonValue::parse("\"\\u20AC\"").string, "\xe2\x82\xac");
  // Surrogate pair (😀, U+1F600) -> four-byte UTF-8.
  EXPECT_EQ(JsonValue::parse("\"\\ud83d\\ude00\"").string,
            "\xf0\x9f\x98\x80");
  // \u0000 is representable (NUL inside the string, not a terminator).
  const std::string nul = JsonValue::parse("\"a\\u0000b\"").string;
  ASSERT_EQ(nul.size(), 3u);
  EXPECT_EQ(nul[1], '\0');
}

TEST(JsonParser, RejectsMalformedUnicodeEscapes) {
  // Bad hex digit.
  EXPECT_THROW(JsonValue::parse("\"\\u12g4\""), std::runtime_error);
  // Truncated escape.
  EXPECT_THROW(JsonValue::parse("\"\\u12\""), std::runtime_error);
  // Lone low surrogate.
  EXPECT_THROW(JsonValue::parse("\"\\ude00\""), std::runtime_error);
  // High surrogate not followed by an escape at all.
  EXPECT_THROW(JsonValue::parse("\"\\ud83dx\""), std::runtime_error);
  // High surrogate followed by a non-surrogate escape.
  EXPECT_THROW(JsonValue::parse("\"\\ud83d\\u0041\""), std::runtime_error);
  // High surrogate at end of input.
  EXPECT_THROW(JsonValue::parse("\"\\ud83d\""), std::runtime_error);
}

TEST(JsonParser, ParsesNumbers) {
  const JsonValue doc = JsonValue::parse("[-1.5e3, 0, 42, 0.125]");
  ASSERT_EQ(doc.items.size(), 4u);
  EXPECT_DOUBLE_EQ(doc.items[0].number, -1500.0);
  EXPECT_DOUBLE_EQ(doc.items[1].number, 0.0);
  EXPECT_DOUBLE_EQ(doc.items[2].number, 42.0);
  EXPECT_DOUBLE_EQ(doc.items[3].number, 0.125);
}

TEST(AtomicWrite, WritesParseableFileAndLeavesNoTemp) {
  const std::string path =
      ::testing::TempDir() + "perigee_atomic_write_test.json";
  std::remove(path.c_str());
  EXPECT_TRUE(write_file_atomic(path, [](std::ostream& os) {
    os << "{\"ok\": true}\n";
  }));
  std::ifstream in(path);
  ASSERT_TRUE(in.good());
  std::stringstream content;
  content << in.rdbuf();
  EXPECT_TRUE(JsonValue::parse(content.str()).find("ok")->boolean);
  // The staging file must be gone after the rename.
  EXPECT_FALSE(std::ifstream(path + ".tmp").good());
  std::remove(path.c_str());
}

TEST(AtomicWrite, KeepsPreviousFileIntactWhenProducerFails) {
  const std::string path =
      ::testing::TempDir() + "perigee_atomic_keep_test.json";
  ASSERT_TRUE(write_file_atomic(
      path, [](std::ostream& os) { os << "{\"generation\": 1}\n"; }));
  // A failing rewrite (stream pushed into an error state mid-production,
  // the moral equivalent of a full disk) must not touch the existing file.
  EXPECT_FALSE(write_file_atomic(path, [](std::ostream& os) {
    os << "{\"generation\": 2, truncated";
    os.setstate(std::ios::failbit);
  }));
  std::ifstream in(path);
  std::stringstream content;
  content << in.rdbuf();
  EXPECT_EQ(JsonValue::parse(content.str()).find("generation")->number, 1.0);
  EXPECT_FALSE(std::ifstream(path + ".tmp").good());
  std::remove(path.c_str());
}

TEST(AtomicWrite, FailsCleanlyOnUnwritablePath) {
  EXPECT_FALSE(write_file_atomic(
      "/nonexistent-perigee-dir/out.json",
      [](std::ostream& os) { os << "{}"; }));
}

TEST(AtomicWrite, SweepResultsLandAtomically) {
  SweepSpec spec;
  spec.name = "atomic";
  spec.base.net.n = 24;
  spec.base.rounds = 0;
  spec.base.algorithm = core::Algorithm::Random;
  spec.seeds = 1;
  const SweepRunner runner(1);
  const SweepResult result = runner.run(spec, nullptr);
  const std::string path =
      ::testing::TempDir() + "perigee_atomic_sweep_test.json";
  ASSERT_TRUE(write_json_file(path, spec, result));
  std::ifstream in(path);
  ASSERT_TRUE(in.good());
  std::stringstream content;
  content << in.rdbuf();
  const JsonValue doc = JsonValue::parse(content.str());
  EXPECT_EQ(doc.find("name")->string, "atomic");
  EXPECT_FALSE(std::ifstream(path + ".tmp").good());
  std::remove(path.c_str());
}

}  // namespace
}  // namespace perigee::runner

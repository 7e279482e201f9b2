// Micro-benchmarks (google-benchmark) for the classifier substrate on the
// day-vector workload shape (96 nominal attributes, 16 categories, 6
// classes) — the "processing time" axis of Figures 5-7.

#include <benchmark/benchmark.h>

#include "common/random.h"
#include "ml/decision_tree.h"
#include "ml/logistic.h"
#include "ml/naive_bayes.h"
#include "ml/random_forest.h"
#include "ml/svr.h"

namespace smeter::ml {
namespace {

// `prefix` followed by the decimal `index`. Built by appending: GCC 12 at
// -O3 flags `"w" + std::to_string(w)` (an insert at the front) with a
// false -Wrestrict, which -Werror makes fatal in the release preset.
std::string IndexedName(const char* prefix, size_t index) {
  std::string name(prefix);
  name += std::to_string(index);
  return name;
}

// A synthetic stand-in for the symbolic day-vector dataset: 96 nominal
// attributes of 16 categories, classes distinguishable by shifted
// category distributions.
Dataset DayVectorLikeDataset(size_t instances_per_class, size_t classes) {
  std::vector<Attribute> attributes;
  std::vector<std::string> categories;
  for (int c = 0; c < 16; ++c) categories.push_back(std::to_string(c));
  for (int w = 0; w < 96; ++w) {
    attributes.push_back(
        Attribute::Nominal(IndexedName("w", static_cast<size_t>(w)),
                           categories));
  }
  std::vector<std::string> labels;
  for (size_t c = 0; c < classes; ++c) {
    labels.push_back(IndexedName("h", c));
  }
  attributes.push_back(Attribute::Nominal("house", labels));
  Dataset d = Dataset::Create("bench", attributes, 96).value();
  Rng rng(3);
  for (size_t c = 0; c < classes; ++c) {
    for (size_t i = 0; i < instances_per_class; ++i) {
      std::vector<double> row;
      for (int w = 0; w < 96; ++w) {
        double center = static_cast<double>((c * 3 + static_cast<size_t>(w) / 24) % 16);
        double v = center + rng.Gaussian(0.0, 2.0);
        row.push_back(std::clamp(v, 0.0, 15.0));
      }
      for (double& v : row) v = std::floor(v);
      row.push_back(static_cast<double>(c));
      (void)d.Add(std::move(row));
    }
  }
  return d;
}

const Dataset& BenchDataset() {
  static const Dataset* dataset = new Dataset(DayVectorLikeDataset(25, 6));
  return *dataset;
}

template <typename ClassifierT>
void TrainBench(benchmark::State& state, ClassifierT make) {
  const Dataset& d = BenchDataset();
  for (auto _ : state) {
    auto classifier = make();
    Status status = classifier->Train(d);
    if (!status.ok()) state.SkipWithError(status.ToString().c_str());
    benchmark::DoNotOptimize(classifier);
  }
}

void BM_NaiveBayesTrain(benchmark::State& state) {
  TrainBench(state, [] { return std::make_unique<NaiveBayes>(); });
}
BENCHMARK(BM_NaiveBayesTrain);

void BM_J48Train(benchmark::State& state) {
  TrainBench(state, [] { return std::make_unique<DecisionTree>(); });
}
BENCHMARK(BM_J48Train);

void BM_RandomForestTrain(benchmark::State& state) {
  TrainBench(state, [] {
    RandomForestOptions options;
    options.num_trees = 50;
    return std::make_unique<RandomForest>(options);
  });
}
BENCHMARK(BM_RandomForestTrain);

void BM_LogisticTrain(benchmark::State& state) {
  TrainBench(state, [] {
    LogisticOptions options;
    options.max_iterations = 50;
    return std::make_unique<Logistic>(options);
  });
}
BENCHMARK(BM_LogisticTrain);

void BM_NaiveBayesPredict(benchmark::State& state) {
  const Dataset& d = BenchDataset();
  NaiveBayes nb;
  (void)nb.Train(d);
  size_t r = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(nb.Predict(d.row(r)));
    r = (r + 1) % d.num_instances();
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_NaiveBayesPredict);

void BM_RandomForestPredict(benchmark::State& state) {
  const Dataset& d = BenchDataset();
  RandomForestOptions options;
  options.num_trees = 50;
  RandomForest forest(options);
  (void)forest.Train(d);
  size_t r = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(forest.Predict(d.row(r)));
    r = (r + 1) % d.num_instances();
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_RandomForestPredict);

void BM_SvrTrain(benchmark::State& state) {
  // The Figure 8/9 shape: 156 rows of 12 lag features.
  Rng rng(5);
  std::vector<std::vector<double>> x;
  std::vector<double> y;
  for (int i = 0; i < 156; ++i) {
    std::vector<double> row;
    for (int j = 0; j < 12; ++j) row.push_back(rng.LogNormal(5.0, 1.0));
    x.push_back(row);
    y.push_back(rng.LogNormal(5.0, 1.0));
  }
  SvrOptions options;
  options.c = 10.0;
  for (auto _ : state) {
    Svr svr(options);
    Status status = svr.Train(x, y);
    if (!status.ok()) state.SkipWithError(status.ToString().c_str());
    benchmark::DoNotOptimize(svr);
  }
}
BENCHMARK(BM_SvrTrain);

}  // namespace
}  // namespace smeter::ml

BENCHMARK_MAIN();

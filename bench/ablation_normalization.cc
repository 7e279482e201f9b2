// Figure 3 ablation: per-house z-normalization (as SAX prescribes) erases
// consumption magnitude, merging big and small consumers; the paper's
// unnormalized, house-calibrated tables keep them apart.
//
// Part 1 reproduces the figure's thought experiment with two scaled
// profiles. Part 2 quantifies it: day-classification F-measure with SAX
// encoding vs the paper's median encoding on the same fleet.

#include <cstdio>

#include "bench_util.h"
#include "core/encoder.h"
#include "core/sax.h"
#include "data/day_splitter.h"

namespace smeter::bench {
namespace {

void ScaledProfilesDemo() {
  std::printf("-- part 1: two consumers with the same shape, 10x scale --\n");
  // One day of a simple two-level profile, 1 Hz.
  std::vector<double> small, big;
  for (int t = 0; t < 6 * 3600; ++t) {
    double base = (t / 3600) % 2 == 0 ? 100.0 : 400.0;
    small.push_back(base);
    big.push_back(10.0 * base);
  }
  TimeSeries small_series = TimeSeries::FromValues(small);
  TimeSeries big_series = TimeSeries::FromValues(big);

  SaxOptions sax;
  sax.level = 2;
  sax.paa_frame = 3600;
  std::string sax_small =
      SaxEncode(small_series, sax).value().ToBitString();
  std::string sax_big = SaxEncode(big_series, sax).value().ToBitString();
  std::printf("SAX (z-normalized):  small = %s\n", sax_small.c_str());
  std::printf("                     big   = %s   -> %s\n", sax_big.c_str(),
              sax_small == sax_big ? "IDENTICAL (Figure 3's A~C, B~D)"
                                   : "distinct");

  // The paper's approach: one shared (global) median table, no
  // normalization: magnitudes survive.
  std::vector<double> pooled = small;
  pooled.insert(pooled.end(), big.begin(), big.end());
  LookupTableOptions table_options;
  table_options.method = SeparatorMethod::kMedian;
  table_options.level = 2;
  LookupTable table = LookupTable::Build(pooled, table_options).value();
  PipelineOptions pipeline;
  pipeline.window_seconds = 3600;
  std::string sym_small =
      EncodePipeline(small_series, table, pipeline).value().ToBitString();
  std::string sym_big =
      EncodePipeline(big_series, table, pipeline).value().ToBitString();
  std::printf("median (no z-norm):  small = %s\n", sym_small.c_str());
  std::printf("                     big   = %s   -> %s\n", sym_big.c_str(),
              sym_small == sym_big ? "identical"
                                   : "DISTINCT (magnitude preserved)");
}

// Encodes the fleet's day vectors with classic SAX (z-normalized per day)
// and runs the same NB day-classification as the symbolic pipeline.
Result<double> SaxClassificationF1(const std::vector<TimeSeries>& fleet) {
  const int level = 4;
  std::vector<std::string> names;
  for (uint32_t i = 0; i < (1u << level); ++i) {
    names.push_back(Symbol::Create(level, i).value().ToBits());
  }
  std::vector<ml::Attribute> attributes;
  for (int w = 0; w < 24; ++w) {
    // Appended, not `"w" + std::to_string(w)`: GCC 12 at -O3 flags that
    // front insert with a false -Wrestrict (fatal under -Werror).
    std::string name = "w";
    name += std::to_string(w);
    attributes.push_back(ml::Attribute::Nominal(name, names));
  }
  std::vector<std::string> houses;
  for (size_t h = 0; h < fleet.size(); ++h) {
    houses.push_back("house" + std::to_string(h + 1));
  }
  attributes.push_back(ml::Attribute::Nominal("house", houses));
  Result<ml::Dataset> dataset =
      ml::Dataset::Create("sax-days", attributes, 24);
  if (!dataset.ok()) return dataset.status();

  data::DayVectorOptions day;
  day.window_seconds = kSecondsPerHour;
  for (size_t h = 0; h < fleet.size(); ++h) {
    Result<std::vector<data::DayVector>> days =
        data::BuildDayVectors(fleet[h], day);
    if (!days.ok()) return days.status();
    for (const data::DayVector& dv : *days) {
      if (dv.windows_present < 24) continue;  // SAX needs a complete day
      TimeSeries day_series = TimeSeries::FromValues(dv.values);
      SaxOptions sax;
      sax.level = level;
      sax.paa_frame = 1;  // already aggregated to hours
      Result<SymbolicSeries> word = SaxEncode(day_series, sax);
      if (!word.ok()) continue;  // constant day: z-norm undefined
      std::vector<double> row;
      for (const SymbolicSample& s : word.value()) {
        row.push_back(static_cast<double>(s.symbol.index()));
      }
      row.push_back(static_cast<double>(h));
      SMETER_RETURN_IF_ERROR(dataset->Add(std::move(row)));
    }
  }
  Result<ml::CrossValidationResult> cv = ml::CrossValidate(
      MakeClassifierFactory("NaiveBayes"), dataset.value(), 10, 1);
  if (!cv.ok()) return cv.status();
  return cv->metrics.WeightedF1();
}

void Run() {
  PrintBenchHeader(
      "Figure 3 ablation: SAX normalization vs the paper's encodings",
      {"why SAX's per-series z-normalization is wrong for smart meters"});
  ScaledProfilesDemo();

  std::printf("\n-- part 2: day classification, SAX word vs median symbols "
              "(NB, 1h, 16 symbols, 10-fold CV) --\n");
  std::vector<TimeSeries> fleet = PaperFleet();
  Result<double> sax_f1 = SaxClassificationF1(fleet);
  data::ClassificationOptions options;
  options.day.window_seconds = kSecondsPerHour;
  options.method = SeparatorMethod::kMedian;
  options.level = 4;
  Result<ClassificationRun> median_run =
      RunSymbolicClassification(fleet, options, "NaiveBayes");
  std::printf("SAX (z-norm, Gaussian table) F-measure: %.3f\n",
              sax_f1.ok() ? sax_f1.value() : -1.0);
  std::printf("median (house-calibrated)    F-measure: %.3f\n",
              median_run.ok() ? median_run->weighted_f1 : -1.0);
}

}  // namespace
}  // namespace smeter::bench

int main() {
  smeter::bench::Run();
  return 0;
}

// Fig 8: relative SDC-rate reduction of Hong et al.'s Tanh-substitution
// defense vs Ranger, on ReLU-based models and on Tanh-based variants.
// Paper findings: the Tanh swap yields 0% reduction on models already
// using Tanh (faults after the Tanh are untouched) and modest reduction on
// ReLU models; Ranger exceeds 85% everywhere.
//
// Runs on fi::Suite: {lenet, alexnet, vgg11, dave, comma} × {relu, tanh}
// × fixed32 × single-bit × {unprotected, ranger}; each reduction is
// computed from the judge-averaged SDC rates of two of those cells.
#include "bench/common.hpp"

using namespace rangerpp;

namespace {

double reduction_pct(double base, double with_defense) {
  if (base <= 0.0) return 0.0;
  return 100.0 * (base - with_defense) / base;
}

}  // namespace

int main() {
  const bench::BenchConfig cfg;
  bench::print_header(
      "Relative SDC reduction: Hong et al. (Tanh swap) vs Ranger", "Fig. 8");
  bench::print_shard_note(cfg);

  const models::ModelId ids[] = {
      models::ModelId::kLeNet, models::ModelId::kAlexNet,
      models::ModelId::kVgg11, models::ModelId::kDave,
      models::ModelId::kComma};

  // ReLU-activation base model (the published configuration) and the
  // Tanh-activation variant.  Hong et al.'s defense = swap every ACT to
  // Tanh (applied to the ReLU model); applied to the Tanh model it
  // changes nothing.
  fi::SuiteSpec spec = bench::suite_spec_from_env(cfg, "fig8");
  spec.models.assign(std::begin(ids), std::end(ids));
  spec.acts = {ops::OpKind::kRelu, ops::OpKind::kTanh};
  fi::Suite suite(std::move(spec));
  const fi::SuiteResult result = suite.run();
  const auto sdc_pct = [&](models::ModelId id, ops::OpKind act,
                           fi::Technique t) {
    return bench::mean_sdc_pct(bench::find_cell(result, id, t, act).report);
  };

  util::Table table({"model", "Tanh-Hong", "Tanh-Ranger", "Relu-Hong",
                     "Relu-Ranger"});
  double sums[4] = {0, 0, 0, 0};
  for (const models::ModelId id : ids) {
    using fi::Technique;
    const double sdc_relu =
        sdc_pct(id, ops::OpKind::kRelu, Technique::kUnprotected);
    const double sdc_relu_ranger =
        sdc_pct(id, ops::OpKind::kRelu, Technique::kRanger);
    const double sdc_tanh =
        sdc_pct(id, ops::OpKind::kTanh, Technique::kUnprotected);
    const double sdc_tanh_ranger =
        sdc_pct(id, ops::OpKind::kTanh, Technique::kRanger);

    const double tanh_hong = 0.0;  // defense == identity on Tanh models
    const double tanh_ranger = reduction_pct(sdc_tanh, sdc_tanh_ranger);
    const double relu_hong = reduction_pct(sdc_relu, sdc_tanh);
    const double relu_ranger = reduction_pct(sdc_relu, sdc_relu_ranger);
    sums[0] += tanh_hong;
    sums[1] += tanh_ranger;
    sums[2] += relu_hong;
    sums[3] += relu_ranger;
    table.add_row({models::model_name(id), util::Table::pct(tanh_hong, 2),
                   util::Table::pct(tanh_ranger, 2),
                   util::Table::pct(relu_hong, 2),
                   util::Table::pct(relu_ranger, 2)});
  }
  const double n = static_cast<double>(std::size(ids));
  table.add_row({"Average", util::Table::pct(sums[0] / n, 2),
                 util::Table::pct(sums[1] / n, 2),
                 util::Table::pct(sums[2] / n, 2),
                 util::Table::pct(sums[3] / n, 2)});
  table.print();
  std::printf(
      "Paper averages: Tanh-Hong 0.00%%, Tanh-Ranger 94.19%%, "
      "Relu-Hong 47.32%%, Relu-Ranger 93.85%%.\n"
      "(Relu-Hong can be negative when the Tanh swap *hurts* resilience "
      "for a model.)\n");
  return 0;
}

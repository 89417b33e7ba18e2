// Dataset abstractions for the synthetic stand-ins of the paper's five
// datasets (MNIST, CIFAR-10, GTSRB, ImageNet, the SullyChen driving set).
//
// The reproduction does not need the *semantic content* of those datasets —
// fault-propagation behaviour depends on topology, datatype and value
// ranges — but it does need (a) inputs with realistic per-pixel statistics
// to profile bounds, (b) a train/validation split, and (c) labels so the
// trainable models (LeNet, Dave, Comma) measure real accuracy for
// Table II / V.  See DESIGN.md §3 for the substitution rationale.
#pragma once

#include <string>
#include <vector>

#include "fi/campaign.hpp"  // Feeds
#include "tensor/tensor.hpp"

namespace rangerpp::data {

struct Sample {
  tensor::Tensor image;
  int label = 0;        // classifier target
  float angle = 0.0f;   // steering target, degrees
};

struct Dataset {
  std::vector<Sample> samples;

  // Converts the first `n` samples (all when n == 0) into executor feeds
  // bound to the input node `input_name`.
  std::vector<fi::Feeds> feeds(const std::string& input_name,
                               std::size_t n = 0) const;
};

}  // namespace rangerpp::data

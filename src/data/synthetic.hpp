// Procedural dataset generators.  Sample i of a generator's stream is a
// pure function of derive_seed(seed, i), so every bench and test sees
// identical data.  Each generator synthesises the index range
// [first, first + n) of that stream, in parallel over samples; the result
// depends neither on the thread count nor on how a caller splits the
// range.  Each call adds n to the `data.samples` metrics counter.
#pragma once

#include <cstdint>

#include "data/dataset.hpp"

namespace rangerpp::data {

// 28x28x1 hand-drawn-style digits (MNIST stand-in): ten 7x5 glyph
// templates rendered with random translation, stroke-thickness jitter,
// per-pixel noise, and contrast variation.
Dataset synthetic_digits(std::size_t n, std::uint64_t seed,
                         std::size_t first = 0);

// Generic structured RGB images (CIFAR-10 / GTSRB / ImageNet stand-ins):
// each class is a distinct mixture of oriented sinusoidal gratings and a
// class-specific colour signature, plus noise — enough structure for a
// trained model to separate classes and for activations to have realistic,
// input-dependent ranges.
Dataset synthetic_objects(std::size_t n, int classes, int height, int width,
                          std::uint64_t seed, std::size_t first = 0);

// Driving frames (SullyChen dataset stand-in): renders a straight-or-curved
// road with lane markings, horizon and noise onto an h x w x 3 frame.  The
// steering label (degrees) is proportional to the road curvature, like a
// real centre-lane driving recording.
Dataset synthetic_driving(std::size_t n, int height, int width,
                          std::uint64_t seed, std::size_t first = 0);

}  // namespace rangerpp::data

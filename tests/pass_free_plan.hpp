// The tests' reference plan: graph::compile under Observe::kAll, where no
// rewrite touches the graph (pinned by Compile.ObserveAllIsPassFree in
// passes_test.cpp).  Every node keeps its source id and op, so hooks see
// every node and fault sites planned on the graph replay on the plan
// unchanged.
#pragma once

#include <string>
#include <unordered_map>

#include "graph/executor.hpp"
#include "graph/passes.hpp"

namespace rangerpp {

inline graph::ExecutionPlan pass_free_plan(const graph::Graph& g,
                                           graph::CompileOptions options) {
  options.observe = graph::Observe::kAll;
  return graph::compile(g, options);
}

inline graph::ExecutionPlan pass_free_plan(const graph::Graph& g,
                                           tensor::DType dtype) {
  return pass_free_plan(g, {.dtype = dtype});
}

// One float32 run of `g`'s pass-free plan.
inline tensor::Tensor float_output(
    const graph::Graph& g,
    const std::unordered_map<std::string, tensor::Tensor>& feeds) {
  const graph::ExecutionPlan plan =
      pass_free_plan(g, tensor::DType::kFloat32);
  graph::Arena arena;
  return graph::Executor({tensor::DType::kFloat32}).run(plan, feeds, arena);
}

}  // namespace rangerpp

#pragma once

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

namespace pfar::workload {

/// One layer of the trained model, as the replay engine sees it: how many
/// cycles one (unskewed) node spends in its forward and backward pass, and
/// how many gradient elements backprop emits for it. All quantities are
/// virtual cycles / elements — the workload layer never touches wall time.
struct LayerSpec {
  long long forward_cycles = 0;
  long long backward_cycles = 0;
  long long gradient_elements = 0;
};

/// A training trace: the per-layer structure plus how many SGD iterations
/// one replayed epoch runs. Obtained either from synthesize_trace (the
/// built-in parameterized model) or parse_trace_json (replay of a recorded
/// trace file) — the replay engine does not care which.
struct TrainingTrace {
  std::vector<LayerSpec> layers;  // index 0 = input layer (first forward)
  int iterations = 1;             // SGD steps per replayed epoch

  long long total_forward_cycles() const;
  long long total_backward_cycles() const;
  long long total_compute_cycles() const;
  long long total_gradient_elements() const;
};

/// Knobs of the built-in parameterized model (docs/training_replay.md).
/// Layer shapes get a deterministic seeded jitter so buckets and compute
/// phases are irregular the way real models are; the same params always
/// synthesize the same trace.
struct ModelParams {
  int layers = 12;
  int iterations = 2;
  /// Mean gradient elements per layer (jittered +/- 50%).
  long long layer_elements = 2048;
  /// Mean forward compute cycles per layer (jittered +/- 50%).
  long long forward_cycles = 2000;
  /// backward_cycles = backward_permille/1000 * forward_cycles: backprop
  /// costs roughly twice the forward pass in real frameworks.
  int backward_permille = 2000;
  std::uint64_t seed = 1;
};

/// Deterministically synthesizes a TrainingTrace from the model params.
TrainingTrace synthesize_trace(const ModelParams& params);

/// Parses the JSON trace schema of docs/training_replay.md:
///   {"iterations": N, "layers": [{"forward_cycles": ..,
///    "backward_cycles": .., "gradient_elements": ..}, ...]}
/// `iterations` (default 1) and the three layer quantities must be JSON
/// integers, read exactly. Throws std::invalid_argument on schema
/// violations (missing members, a quantity that is not an integer or
/// overflows a long long, negative quantities, empty layer list,
/// non-positive iterations), naming the member.
TrainingTrace parse_trace_json(std::string_view text);

/// One gradient bucket: a contiguous back-to-front run of layers whose
/// gradients are fused into a single allreduce, DDP-style.
struct Bucket {
  /// Layer index range [first, last] covered by the bucket, in model
  /// order; buckets are emitted back-to-front, so the FIRST bucket of an
  /// iteration covers the HIGHEST layer indices.
  int first_layer = 0;
  int last_layer = 0;
  long long elements = 0;
  /// Unskewed cycles from the start of the iteration's compute until the
  /// bucket's last gradient exists (full forward pass + backward through
  /// first_layer). Per-node skew scales this at replay time.
  long long ready_offset = 0;
};

/// Groups the trace's layers into gradient buckets of at least
/// `min_bucket_elements` (the last bucket of an iteration may be smaller),
/// walking the layers in backward order — exactly the back-to-front bucket
/// release of a gradient-bucketed data-parallel step. Zero-gradient layers
/// fold into the enclosing bucket. min_bucket_elements <= 0 puts every
/// gradient-bearing layer in its own bucket.
std::vector<Bucket> bucketize(const TrainingTrace& trace,
                              long long min_bucket_elements);

}  // namespace pfar::workload

#include "workload/trace.hpp"

#include <charconv>
#include <climits>
#include <stdexcept>
#include <string>

#include "obsv/report.hpp"
#include "util/contracts.hpp"
#include "util/rng.hpp"

namespace pfar::workload {

namespace {

long long sum_layers(const std::vector<LayerSpec>& layers,
                     long long LayerSpec::*field) {
  long long total = 0;
  for (const LayerSpec& layer : layers) total += layer.*field;
  return total;
}

/// +/- 50% multiplicative jitter around `mean`, floored at 1: the jitter
/// factor is an integer permille in [500, 1500] drawn from the rng, so the
/// synthesized trace is identical on every platform.
long long jitter(long long mean, util::Rng& rng) {
  const long long permille = 500 + static_cast<long long>(rng.next_below(1001));
  return std::max(1LL, mean * permille / 1000);
}

/// Member `field` of `object` as an exact integer: a JSON number written
/// as digits with an optional minus sign that fits a long long. A string,
/// a bool, a fraction, an exponent or an out-of-range value throws
/// std::invalid_argument naming the field.
long long exact_integer(const obsv::JsonValue& object, const char* field) {
  const obsv::JsonValue* v = object.get(field);
  if (v != nullptr && v->type == obsv::JsonValue::Type::kNumber) {
    const char* const end = v->string.data() + v->string.size();
    long long value = 0;
    const auto [stop, ec] = std::from_chars(v->string.data(), end, value);
    if (ec == std::errc() && stop == end) return value;
  }
  throw std::invalid_argument(std::string("training trace: '") + field +
                              "' must be an integer");
}

}  // namespace

long long TrainingTrace::total_forward_cycles() const {
  return sum_layers(layers, &LayerSpec::forward_cycles);
}

long long TrainingTrace::total_backward_cycles() const {
  return sum_layers(layers, &LayerSpec::backward_cycles);
}

long long TrainingTrace::total_compute_cycles() const {
  return total_forward_cycles() + total_backward_cycles();
}

long long TrainingTrace::total_gradient_elements() const {
  return sum_layers(layers, &LayerSpec::gradient_elements);
}

TrainingTrace synthesize_trace(const ModelParams& params) {
  PFAR_REQUIRE(params.layers >= 1, params.layers);
  PFAR_REQUIRE(params.iterations >= 1, params.iterations);
  PFAR_REQUIRE(params.layer_elements >= 1, params.layer_elements);
  PFAR_REQUIRE(params.forward_cycles >= 1, params.forward_cycles);
  PFAR_REQUIRE(params.backward_permille >= 0, params.backward_permille);
  util::Rng rng(params.seed);
  TrainingTrace trace;
  trace.iterations = params.iterations;
  trace.layers.reserve(static_cast<std::size_t>(params.layers));
  for (int i = 0; i < params.layers; ++i) {
    LayerSpec layer;
    layer.forward_cycles = jitter(params.forward_cycles, rng);
    layer.backward_cycles =
        std::max(1LL, layer.forward_cycles * params.backward_permille / 1000);
    layer.gradient_elements = jitter(params.layer_elements, rng);
    trace.layers.push_back(layer);
  }
  PFAR_ENSURE(trace.layers.size() == static_cast<std::size_t>(params.layers),
              trace.layers.size());
  return trace;
}

TrainingTrace parse_trace_json(std::string_view text) {
  obsv::JsonValue doc;
  try {
    doc = obsv::parse_json(text);
  } catch (const std::runtime_error& e) {
    throw std::invalid_argument(std::string("training trace: ") + e.what());
  }
  if (!doc.is_object()) {
    throw std::invalid_argument("training trace: top level must be an object");
  }
  TrainingTrace trace;
  const long long iterations =
      doc.get("iterations") == nullptr ? 1 : exact_integer(doc, "iterations");
  if (iterations < 1 || iterations > INT_MAX) {
    throw std::invalid_argument(
        "training trace: 'iterations' must be >= 1 and fit an int");
  }
  trace.iterations = static_cast<int>(iterations);
  const obsv::JsonValue* layers = doc.get("layers");
  if (layers == nullptr || !layers->is_array() || layers->array.empty()) {
    throw std::invalid_argument(
        "training trace: 'layers' must be a non-empty array");
  }
  for (const obsv::JsonValue& entry : layers->array) {
    if (!entry.is_object()) {
      throw std::invalid_argument("training trace: each layer is an object");
    }
    for (const char* field :
         {"forward_cycles", "backward_cycles", "gradient_elements"}) {
      if (entry.get(field) == nullptr) {
        throw std::invalid_argument(
            std::string("training trace: layer missing '") + field + "'");
      }
    }
    LayerSpec layer;
    layer.forward_cycles = exact_integer(entry, "forward_cycles");
    layer.backward_cycles = exact_integer(entry, "backward_cycles");
    layer.gradient_elements = exact_integer(entry, "gradient_elements");
    if (layer.forward_cycles < 0 || layer.backward_cycles < 0 ||
        layer.gradient_elements < 0) {
      throw std::invalid_argument(
          "training trace: layer quantities must be non-negative");
    }
    trace.layers.push_back(layer);
  }
  PFAR_ENSURE(!trace.layers.empty() && trace.iterations >= 1,
              trace.layers.size(), trace.iterations);
  return trace;
}

std::vector<Bucket> bucketize(const TrainingTrace& trace,
                              long long min_bucket_elements) {
  PFAR_REQUIRE(!trace.layers.empty(), trace.layers.size());
  const long long forward_total = trace.total_forward_cycles();
  std::vector<Bucket> buckets;
  long long backward_so_far = 0;
  Bucket current;
  bool open = false;
  // Backward order: layer L-1 first, layer 0 last — the bucket that covers
  // the LAST backward layer closes last and release offsets are
  // monotonically non-decreasing across the emitted sequence.
  for (int l = static_cast<int>(trace.layers.size()) - 1; l >= 0; --l) {
    const LayerSpec& layer = trace.layers[static_cast<std::size_t>(l)];
    backward_so_far += layer.backward_cycles;
    if (!open) {
      current = Bucket{};
      current.last_layer = l;
      open = true;
    }
    current.first_layer = l;
    current.elements += layer.gradient_elements;
    current.ready_offset = forward_total + backward_so_far;
    if (current.elements >= std::max(1LL, min_bucket_elements)) {
      buckets.push_back(current);
      open = false;
    }
  }
  if (open) {
    // Trailing partial bucket: fold into the previous one when it exists
    // and carries nothing (pure-compute tail layers), else emit it.
    if (current.elements == 0 && !buckets.empty()) {
      buckets.back().first_layer = current.first_layer;
      buckets.back().ready_offset = current.ready_offset;
    } else {
      buckets.push_back(current);
    }
  }
  PFAR_ENSURE(!buckets.empty() && buckets.front().last_layer ==
                                      static_cast<int>(trace.layers.size()) - 1,
              buckets.size());
  PFAR_ENSURE(buckets.back().first_layer == 0, buckets.back().first_layer);
  long long covered = 0;
  for (const Bucket& b : buckets) covered += b.elements;
  PFAR_ENSURE(covered == trace.total_gradient_elements(), covered);
  return buckets;
}

}  // namespace pfar::workload

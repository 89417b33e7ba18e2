#include "models/weights.hpp"

#include <unistd.h>

#include <atomic>
#include <cmath>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <stdexcept>

namespace rangerpp::models {

namespace {

tensor::Tensor normal_tensor(tensor::Shape shape, double stddev,
                             util::Rng& rng) {
  tensor::Tensor t(shape);
  for (float& v : t.mutable_values())
    v = static_cast<float>(rng.normal(0.0, stddev));
  return t;
}

}  // namespace

tensor::Tensor he_filter(int kh, int kw, int in_c, int out_c,
                         util::Rng& rng) {
  const double fan_in = static_cast<double>(kh) * kw * in_c;
  return normal_tensor(tensor::Shape{kh, kw, in_c, out_c},
                       std::sqrt(2.0 / fan_in), rng);
}

tensor::Tensor he_matrix(int in_dim, int out_dim, util::Rng& rng) {
  return normal_tensor(tensor::Shape{in_dim, out_dim},
                       std::sqrt(2.0 / in_dim), rng);
}

tensor::Tensor zero_bias(int n) { return tensor::Tensor(tensor::Shape{n}); }

Weights he_init(const Arch& arch, std::uint64_t seed) {
  Weights w;
  util::Rng rng(seed);
  // Track the running activation shape to size Dense/Conv fan-in.
  tensor::Shape shape = arch.input_shape;
  for (const LayerDef& def : arch.layers) {
    if (const auto* c = std::get_if<ConvDef>(&def)) {
      const int in_c = shape.c();
      w.emplace(c->name + "/filter",
                he_filter(c->kh, c->kw, in_c, c->out_channels, rng));
      w.emplace(c->name + "/bias", zero_bias(c->out_channels));
      const ops::Conv2DOp op(
          ops::Conv2DParams{c->stride, c->stride, c->padding});
      std::array in{shape, tensor::Shape{c->kh, c->kw, in_c,
                                         c->out_channels}};
      shape = op.infer_shape(in);
    } else if (const auto* d = std::get_if<DenseDef>(&def)) {
      const int in_dim = static_cast<int>(shape.elements());
      w.emplace(d->name + "/weights", he_matrix(in_dim, d->units, rng));
      w.emplace(d->name + "/bias", zero_bias(d->units));
      shape = tensor::Shape{1, d->units};
    } else if (const auto* p = std::get_if<PoolDef>(&def)) {
      const ops::MaxPoolOp op(p->params);
      std::array in{shape};
      shape = op.infer_shape(in);
    } else if (std::get_if<FlattenDef>(&def)) {
      shape = tensor::Shape{static_cast<int>(shape.elements())};
    }
    // Act / LRN / Dropout / Softmax / Atan keep the shape.
  }
  return w;
}

void save_weights(const Weights& w, const std::string& path) {
  // Stream into a private temp file in the same directory, then rename it
  // over `path`: rename is atomic within a filesystem, so a concurrent
  // load_weights sees either no file or a complete one, never a prefix.
  static std::atomic<unsigned> serial{0};
  const std::string tmp = path + ".tmp" + std::to_string(::getpid()) + "." +
                          std::to_string(serial.fetch_add(1));
  std::ofstream out(tmp, std::ios::binary);
  if (!out)
    throw std::runtime_error("save_weights: cannot open " + tmp);
  auto put_u32 = [&out](std::uint32_t v) {
    out.write(reinterpret_cast<const char*>(&v), sizeof(v));
  };
  put_u32(static_cast<std::uint32_t>(w.size()));
  for (const auto& [name, t] : w) {
    put_u32(static_cast<std::uint32_t>(name.size()));
    out.write(name.data(), static_cast<std::streamsize>(name.size()));
    put_u32(static_cast<std::uint32_t>(t.shape().rank()));
    for (int i = 0; i < t.shape().rank(); ++i)
      put_u32(static_cast<std::uint32_t>(t.shape().dim(i)));
    const auto v = t.values();
    out.write(reinterpret_cast<const char*>(v.data()),
              static_cast<std::streamsize>(v.size() * sizeof(float)));
  }
  out.close();
  if (!out) {
    std::filesystem::remove(tmp);
    throw std::runtime_error("save_weights: write failed " + path);
  }
  std::filesystem::rename(tmp, path);
}

bool load_weights(Weights& w, const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) return false;  // absent: the caller trains and writes the cache
  // Size of the file this stream opened (not of whatever `path` names
  // now: a concurrent save_weights may have renamed a new file over it).
  in.seekg(0, std::ios::end);
  const auto file_size = static_cast<std::uintmax_t>(in.tellg());
  in.seekg(0);
  // Expected byte count, accumulated from the file's own header fields as
  // they parse; a mismatch against the actual size means the file was
  // truncated by a killed writer or otherwise corrupted — fail loudly
  // with both numbers rather than silently retraining over it.
  std::uintmax_t expected = sizeof(std::uint32_t);  // entry count
  const auto corrupt = [&](const std::string& what) -> bool {
    throw std::runtime_error("load_weights: " + path + " is corrupt (" +
                             what + "; file has " +
                             std::to_string(file_size) + " bytes, header "
                             "describes " + std::to_string(expected) + ")");
  };
  auto get_u32 = [&in]() {
    std::uint32_t v = 0;
    in.read(reinterpret_cast<char*>(&v), sizeof(v));
    return v;
  };
  const std::uint32_t count = get_u32();
  if (!in) return corrupt("unreadable entry count");
  Weights loaded;
  for (std::uint32_t e = 0; e < count; ++e) {
    const std::uint32_t name_len = get_u32();
    expected += 2 * sizeof(std::uint32_t) + name_len;  // name_len+name+rank
    if (!in || expected > file_size)
      return corrupt("entry " + std::to_string(e) + " name");
    std::string name(name_len, '\0');
    in.read(name.data(), name_len);
    const std::uint32_t rank = get_u32();
    if (!in || rank < 1 || rank > 4)
      return corrupt("entry " + std::to_string(e) + " rank");
    std::vector<int> dims(rank);
    std::size_t elems = 1;
    expected += rank * sizeof(std::uint32_t);
    if (expected > file_size)
      return corrupt("entry " + std::to_string(e) + " dims");
    for (std::uint32_t i = 0; i < rank; ++i) {
      dims[i] = static_cast<int>(get_u32());
      elems *= static_cast<std::size_t>(dims[i]);
    }
    expected += static_cast<std::uintmax_t>(elems) * sizeof(float);
    if (!in || expected > file_size)
      return corrupt("entry " + std::to_string(e) + " tensor data");
    std::vector<float> data(elems);
    in.read(reinterpret_cast<char*>(data.data()),
            static_cast<std::streamsize>(elems * sizeof(float)));
    if (!in) return corrupt("entry " + std::to_string(e) + " tensor data");
    tensor::Shape shape;
    switch (rank) {
      case 1: shape = tensor::Shape{dims[0]}; break;
      case 2: shape = tensor::Shape{dims[0], dims[1]}; break;
      case 3: shape = tensor::Shape{dims[0], dims[1], dims[2]}; break;
      default:
        shape = tensor::Shape{dims[0], dims[1], dims[2], dims[3]};
        break;
    }
    loaded.emplace(std::move(name), tensor::Tensor(shape, std::move(data)));
  }
  if (expected != file_size)
    return corrupt("trailing bytes after the last entry");
  w = std::move(loaded);
  return true;
}

std::string weight_cache_dir() {
  const char* env = std::getenv("RANGERPP_WEIGHTS_DIR");
  const std::string dir = env ? env : "rangerpp_weights";
  std::filesystem::create_directories(dir);
  return dir;
}

}  // namespace rangerpp::models

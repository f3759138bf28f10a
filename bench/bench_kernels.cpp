// Kernel-layer throughput: blocked/vectorized/multithreaded kernels vs
// the scalar *_ref oracles.
//
//   build/bench/bench_kernels [output.json]
//
// Measures the numeric workhorses on representative shapes — a square
// GEMM, the conv-lowered ResNet-50 stem and stage-4 input-gradient GEMM
// of the end-to-end benchmark (batch 8 at 64 px), a ResNet-50
// mid-network convolution, an AlexNet fully-connected layer, a 3-D
// ResNeXt convolution — across a thread sweep, and writes
// BENCH_kernels.json (tools/bench_compare.py diffs two such files and
// fails on regression). Every configuration is verified bit-identical to
// the reference before it is timed: a fast-but-wrong kernel aborts the
// bench.
//
// Times are best-of-N wall clock (first rep doubles as warm-up);
// `speedup` is ref_seconds / seconds for the same shape. `peak_pct` is
// gflops over the measured single-precision FMA peak of one core times
// the cores the row can use (min(threads, hardware threads)); the peak
// comes from independent register-only FMA chains at the widest vector
// width the CPU supports (0 when it has no FMA).
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <functional>
#include <string>
#include <thread>
#include <vector>

#if defined(__x86_64__) || defined(__i386__)
#include <immintrin.h>
#endif

#include "kernels/conv.hpp"
#include "kernels/fc.hpp"
#include "kernels/kernel_context.hpp"
#include "kernels/matmul.hpp"
#include "common/rng.hpp"
#include "tensor/tensor_ops.hpp"

namespace pooch::kernels {
namespace {

double time_best(const std::function<void()>& fn, int reps) {
  double best = 1e300;
  for (int r = 0; r < reps; ++r) {
    const auto t0 = std::chrono::steady_clock::now();
    fn();
    const auto t1 = std::chrono::steady_clock::now();
    best = std::min(best, std::chrono::duration<double>(t1 - t0).count());
  }
  return best;
}

Tensor random_tensor(const Shape& shape, std::uint64_t seed) {
  Tensor t(shape);
  Rng rng(seed);
  fill_uniform(t, rng, -1.0f, 1.0f);
  return t;
}

void check_identical(const Tensor& got, const Tensor& want,
                     const char* kernel) {
  if (got.shape() == want.shape() &&
      std::memcmp(got.data(), want.data(),
                  sizeof(float) * static_cast<std::size_t>(got.numel())) ==
          0) {
    return;
  }
  std::fprintf(stderr, "%s: fast kernel is not bit-identical to ref\n",
               kernel);
  std::exit(1);
}

// Single-precision FLOP/s of one core running kChains independent FMA
// chains — enough to cover FMA latency on every FMA port. Each variant is
// compiled for its ISA by attribute and only called when the CPU has it.
#if defined(__x86_64__) || defined(__i386__)
constexpr int kChains = 16;
constexpr long kPeakIters = 1 << 22;

__attribute__((target("avx512f"))) float fma_chains_avx512() {
  __m512 acc[kChains];
  for (int i = 0; i < kChains; ++i) acc[i] = _mm512_set1_ps(0.001f * i);
  const __m512 x = _mm512_set1_ps(0.999999f);
  const __m512 y = _mm512_set1_ps(1e-7f);
  for (long it = 0; it < kPeakIters; ++it) {
#pragma GCC unroll 16
    for (int i = 0; i < kChains; ++i) acc[i] = _mm512_fmadd_ps(acc[i], x, y);
  }
  alignas(64) float lanes[16];
  float sum = 0.0f;
  for (int i = 0; i < kChains; ++i) {
    _mm512_store_ps(lanes, acc[i]);
    for (float v : lanes) sum += v;
  }
  return sum;
}

__attribute__((target("avx2,fma"))) float fma_chains_avx2() {
  __m256 acc[kChains];
  for (int i = 0; i < kChains; ++i) acc[i] = _mm256_set1_ps(0.001f * i);
  const __m256 x = _mm256_set1_ps(0.999999f);
  const __m256 y = _mm256_set1_ps(1e-7f);
  for (long it = 0; it < kPeakIters; ++it) {
#pragma GCC unroll 16
    for (int i = 0; i < kChains; ++i) acc[i] = _mm256_fmadd_ps(acc[i], x, y);
  }
  alignas(32) float lanes[8];
  float sum = 0.0f;
  for (int i = 0; i < kChains; ++i) {
    _mm256_store_ps(lanes, acc[i]);
    for (float v : lanes) sum += v;
  }
  return sum;
}

double fma_peak_flops_per_core() {
  int lanes = 0;
  float (*chains)() = nullptr;
  if (__builtin_cpu_supports("avx512f")) {
    lanes = 16;
    chains = fma_chains_avx512;
  } else if (__builtin_cpu_supports("avx2") &&
             __builtin_cpu_supports("fma")) {
    lanes = 8;
    chains = fma_chains_avx2;
  } else {
    return 0.0;
  }
  volatile float sink = 0.0f;
  const double seconds = time_best([&] { sink = sink + chains(); }, 3);
  return 2.0 * lanes * kChains * static_cast<double>(kPeakIters) / seconds;
}
#else
double fma_peak_flops_per_core() { return 0.0; }
#endif

struct Row {
  std::string kernel;
  std::string shape;
  int threads = 1;
  double seconds = 0.0;
  double gflops = 0.0;
  double ref_seconds = 0.0;
  double speedup = 0.0;
  double peak_pct = 0.0;
};

/// One benchmark case: `fast` runs the blocked kernel under a context and
/// leaves its output in `out`; `ref` runs the scalar oracle into `out_ref`.
struct Case {
  std::string kernel;
  std::string shape;
  double flops = 0.0;
  std::function<void(KernelContext&)> fast;
  std::function<void()> ref;
  const Tensor* out = nullptr;
  const Tensor* out_ref = nullptr;
};

void run_case(const Case& c, const std::vector<int>& thread_sweep,
              double core_peak, std::vector<Row>& rows) {
  const double ref_seconds = time_best(c.ref, 2);
  for (int threads : thread_sweep) {
    KernelContext ctx(threads);
    c.fast(ctx);
    check_identical(*c.out, *c.out_ref, c.kernel.c_str());
    const double seconds = time_best([&] { c.fast(ctx); }, 3);
    Row r;
    r.kernel = c.kernel;
    r.shape = c.shape;
    r.threads = threads;
    r.seconds = seconds;
    r.gflops = c.flops / seconds * 1e-9;
    r.ref_seconds = ref_seconds;
    r.speedup = ref_seconds / seconds;
    const int cores = std::min<int>(
        threads, static_cast<int>(std::thread::hardware_concurrency()));
    if (core_peak > 0.0) {
      r.peak_pct = 100.0 * c.flops / seconds / (core_peak * std::max(1, cores));
    }
    rows.push_back(r);
    std::printf(
        "| %-14s | %-22s | %7d | %9.4f | %7.2f | %5.1f%% | %9.4f | %6.2fx |\n",
        r.kernel.c_str(), r.shape.c_str(), r.threads, r.seconds, r.gflops,
        r.peak_pct, r.ref_seconds, r.speedup);
  }
}

double conv_flops(const Shape& xs, const ConvAttrs& a) {
  const Shape ys = conv_output_shape(xs, a);
  double outs = 1.0;
  for (int d = 0; d < ys.rank(); ++d) outs *= static_cast<double>(ys[d]);
  const double kvol = static_cast<double>(a.kernel[0] * a.kernel[1] *
                                          a.kernel[2]);
  const double cin_per_group = static_cast<double>(xs[1] / a.groups);
  return 2.0 * outs * cin_per_group * kvol;
}

void write_json(const char* path, const std::vector<Row>& rows) {
  std::FILE* f = std::fopen(path, "w");
  if (!f) {
    std::fprintf(stderr, "cannot open %s\n", path);
    std::exit(1);
  }
  std::fprintf(f, "{\n  \"bench\": \"kernels\",\n  \"rows\": [\n");
  for (std::size_t i = 0; i < rows.size(); ++i) {
    const Row& r = rows[i];
    std::fprintf(f,
                 "    {\"kernel\": \"%s\", \"shape\": \"%s\", "
                 "\"threads\": %d, \"seconds\": %.6f, \"gflops\": %.3f, "
                 "\"peak_pct\": %.1f, \"ref_seconds\": %.6f, "
                 "\"speedup\": %.3f}%s\n",
                 r.kernel.c_str(), r.shape.c_str(), r.threads, r.seconds,
                 r.gflops, r.peak_pct, r.ref_seconds, r.speedup,
                 i + 1 < rows.size() ? "," : "");
  }
  std::fprintf(f, "  ]\n}\n");
  std::fclose(f);
  std::printf("\nwritten to %s\n", path);
}

int run(const char* json_path) {
  const std::vector<int> sweep{1, 2, 4, 8};
  std::vector<Row> rows;
  const double core_peak = fma_peak_flops_per_core();
  std::printf("per-core FMA peak: %.1f GFLOP/s (measured)\n\n",
              core_peak * 1e-9);
  std::printf("| kernel         | shape                  | threads | "
              "seconds   | gflops  | peak   | ref s     | speedup |\n"
              "|----------------|------------------------|---------|"
              "-----------|---------|--------|-----------|---------|\n");

  // Square GEMM — the layer every conv/fc call funnels into.
  {
    const std::int64_t m = 512, k = 512, n = 512;
    const Tensor a = random_tensor(Shape{m, k}, 1);
    const Tensor b = random_tensor(Shape{k, n}, 2);
    Tensor c(Shape{m, n});
    Tensor c_ref(Shape{m, n});
    matmul_ref(a.data(), b.data(), c_ref.data(), m, k, n);
    Case cs;
    cs.kernel = "matmul";
    cs.shape = "512x512x512";
    cs.flops = 2.0 * static_cast<double>(m) * k * n;
    cs.fast = [&](KernelContext& ctx) {
      matmul(a.data(), b.data(), c.data(), m, k, n, ctx);
    };
    cs.ref = [&] { matmul_ref(a.data(), b.data(), c_ref.data(), m, k, n); };
    cs.out = &c;
    cs.out_ref = &c_ref;
    run_case(cs, sweep, core_peak, rows);
  }

  // ResNet-50 b8 @ 64 px stem (7x7/2, 3 -> 64 channels): the largest
  // conv-lowered GEMM of the end-to-end benchmark, 64 x 147 x 1024 per
  // sample.
  {
    const Shape xs{8, 3, 64, 64};
    const ConvAttrs attrs = ConvAttrs::conv2d(64, 7, 2, 3, 1, false);
    const Tensor x = random_tensor(xs, 12);
    const Tensor w = random_tensor(conv_weight_shape(xs, attrs), 13);
    Tensor y(conv_output_shape(xs, attrs));
    Tensor y_ref(conv_output_shape(xs, attrs));
    conv_forward_ref(x, w, nullptr, y_ref, attrs);
    Case cs;
    cs.kernel = "conv_r50_stem";
    cs.shape = "8x3x64x64 k7s2";
    cs.flops = conv_flops(xs, attrs);
    cs.fast = [&](KernelContext& ctx) {
      conv_forward(x, w, nullptr, y, attrs, ctx);
    };
    cs.ref = [&] { conv_forward_ref(x, w, nullptr, y_ref, attrs); };
    cs.out = &y;
    cs.out_ref = &y_ref;
    run_case(cs, sweep, core_peak, rows);
  }

  // ResNet-50 b8 @ 64 px stage-4 3x3 conv, input gradient: the column
  // gradient W^T (4608 x 512) * dY (512 x 32), all 8 samples' 2x2
  // outputs lowered side by side into N = 32 columns.
  {
    const std::int64_t m = 4608, k = 512, n = 32;
    const Tensor a = random_tensor(Shape{k, m}, 14);
    const Tensor b = random_tensor(Shape{k, n}, 15);
    Tensor c(Shape{m, n});
    Tensor c_ref(Shape{m, n});
    matmul_at_ref(a.data(), b.data(), c_ref.data(), m, k, n);
    Case cs;
    cs.kernel = "gemm_r50_s4_dx";
    cs.shape = "4608x512x32 at";
    cs.flops = 2.0 * static_cast<double>(m) * k * n;
    cs.fast = [&](KernelContext& ctx) {
      matmul_at(a.data(), b.data(), c.data(), m, k, n, ctx);
    };
    cs.ref = [&] { matmul_at_ref(a.data(), b.data(), c_ref.data(), m, k, n); };
    cs.out = &c;
    cs.out_ref = &c_ref;
    run_case(cs, sweep, core_peak, rows);
  }

  // ResNet-50 conv3x3 at 14x14 (conv4_x block shape, reduced batch).
  {
    const Shape xs{4, 256, 14, 14};
    const ConvAttrs attrs = ConvAttrs::conv2d(256, 3, 1, 1);
    const Tensor x = random_tensor(xs, 3);
    const Tensor w = random_tensor(conv_weight_shape(xs, attrs), 4);
    const Tensor bias = random_tensor(Shape{attrs.out_channels}, 5);
    Tensor y(conv_output_shape(xs, attrs));
    Tensor y_ref(conv_output_shape(xs, attrs));
    conv_forward_ref(x, w, &bias, y_ref, attrs);
    Case cs;
    cs.kernel = "conv2d_r50";
    cs.shape = "4x256x14x14 k3";
    cs.flops = conv_flops(xs, attrs);
    cs.fast = [&](KernelContext& ctx) {
      conv_forward(x, w, &bias, y, attrs, ctx);
    };
    cs.ref = [&] { conv_forward_ref(x, w, &bias, y_ref, attrs); };
    cs.out = &y;
    cs.out_ref = &y_ref;
    run_case(cs, sweep, core_peak, rows);
  }

  // AlexNet fc6: the big dense layer (9216 -> 4096), reduced batch.
  {
    const std::int64_t batch = 16, in_f = 9216, out_f = 4096;
    FcAttrs attrs;
    attrs.out_features = out_f;
    const Tensor x = random_tensor(Shape{batch, in_f}, 6);
    const Tensor w = random_tensor(Shape{out_f, in_f}, 7);
    const Tensor bias = random_tensor(Shape{out_f}, 8);
    Tensor y(Shape{batch, out_f});
    Tensor y_ref(Shape{batch, out_f});
    fc_forward_ref(x, w, &bias, y_ref, attrs);
    Case cs;
    cs.kernel = "fc_alexnet";
    cs.shape = "16x9216x4096";
    cs.flops = 2.0 * static_cast<double>(batch) * in_f * out_f;
    cs.fast = [&](KernelContext& ctx) {
      fc_forward(x, w, &bias, y, attrs, ctx);
    };
    cs.ref = [&] { fc_forward_ref(x, w, &bias, y_ref, attrs); };
    cs.out = &y;
    cs.out_ref = &y_ref;
    run_case(cs, sweep, core_peak, rows);
  }

  // 3-D ResNeXt-style convolution (the paper's flagship workload).
  {
    const Shape xs{1, 64, 4, 14, 14};
    const ConvAttrs attrs = ConvAttrs::conv3d(64, 3, 1, 1);
    const Tensor x = random_tensor(xs, 9);
    const Tensor w = random_tensor(conv_weight_shape(xs, attrs), 10);
    const Tensor bias = random_tensor(Shape{attrs.out_channels}, 11);
    Tensor y(conv_output_shape(xs, attrs));
    Tensor y_ref(conv_output_shape(xs, attrs));
    conv_forward_ref(x, w, &bias, y_ref, attrs);
    Case cs;
    cs.kernel = "conv3d_rx";
    cs.shape = "1x64x4x14x14 k3";
    cs.flops = conv_flops(xs, attrs);
    cs.fast = [&](KernelContext& ctx) {
      conv_forward(x, w, &bias, y, attrs, ctx);
    };
    cs.ref = [&] { conv_forward_ref(x, w, &bias, y_ref, attrs); };
    cs.out = &y;
    cs.out_ref = &y_ref;
    run_case(cs, sweep, core_peak, rows);
  }

  write_json(json_path, rows);
  return 0;
}

}  // namespace
}  // namespace pooch::kernels

int main(int argc, char** argv) {
  return pooch::kernels::run(argc > 1 ? argv[1] : "BENCH_kernels.json");
}

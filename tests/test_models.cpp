#include <gtest/gtest.h>

#include "common/units.hpp"
#include "graph/autodiff.hpp"
#include "graph/liveness.hpp"
#include "models/models.hpp"
#include "sim/plan.hpp"
#include "testing_util.hpp"

namespace pooch::models {
namespace {

std::size_t param_count(const graph::Graph& g) {
  return g.total_param_bytes() / 4;
}

TEST(Mlp, Structure) {
  const auto g = mlp(8, 16, {32, 32}, 10);
  EXPECT_EQ(g.num_nodes(), 2 * 2 + 2);  // (fc+relu)x2 + head + loss
  EXPECT_EQ(g.value(g.output()).shape, (Shape{1}));
  // Parameters: 16*32+32 + 32*32+32 + 32*10+10.
  EXPECT_EQ(param_count(g), 16u * 32 + 32 + 32 * 32 + 32 + 32 * 10 + 10);
}

TEST(SmallCnn, Structure) {
  const auto g = small_cnn(4, 32, 1, 10);
  g.validate();
  // gap output is (4, 64).
  bool found = false;
  for (const auto& n : g.nodes()) {
    if (n.kind == graph::LayerKind::kGlobalAvgPool) {
      EXPECT_EQ(g.value(n.output).shape, (Shape{4, 64}));
      found = true;
    }
  }
  EXPECT_TRUE(found);
}

TEST(AlexNet, ParameterCount) {
  const auto g = alexnet(1);
  // The classic single-column AlexNet has ~62.4M parameters (our variant
  // lacks the cross-GPU split, so conv2/4/5 are unsplit).
  const double params_m = static_cast<double>(param_count(g)) / 1e6;
  EXPECT_GT(params_m, 55.0);
  EXPECT_LT(params_m, 72.0);
}

TEST(AlexNet, SpatialPipeline) {
  const auto g = alexnet(2);
  // conv1 output is 96 x 55 x 55.
  EXPECT_EQ(g.value(g.node(0).output).shape, (Shape{2, 96, 55, 55}));
  // final pool output is 256 x 6 x 6.
  for (const auto& n : g.nodes()) {
    if (n.name == "pool5") {
      EXPECT_EQ(g.value(n.output).shape, (Shape{2, 256, 6, 6}));
    }
  }
}

TEST(Vgg16, ParameterCount) {
  const auto g = vgg16(1);
  // Canonical VGG-16 has ~138.4M parameters.
  const double params_m = static_cast<double>(param_count(g)) / 1e6;
  EXPECT_GT(params_m, 132.0);
  EXPECT_LT(params_m, 145.0);
}

TEST(Vgg16, StagePipeline) {
  const auto g = vgg16(2);
  // Five pooling stages halve 224 down to 7.
  for (const auto& n : g.nodes()) {
    if (n.name == "s4.pool") {
      EXPECT_EQ(g.value(n.output).shape, (Shape{2, 512, 7, 7}));
    }
  }
  // Memory-hungry: the batch-320 iteration does not fit a 16 GiB card.
  EXPECT_GT(bytes_to_gib(graph::incore_peak_bytes(vgg16(320))), 16.0);
}

TEST(ResNet50, ParameterCount) {
  const auto g = resnet50(1);
  // Canonical ResNet-50 has 25.6M parameters.
  const double params_m = static_cast<double>(param_count(g)) / 1e6;
  EXPECT_GT(params_m, 24.0);
  EXPECT_LT(params_m, 27.0);
}

TEST(ResNet50, StageShapes) {
  const auto g = resnet50(2);
  // Output of the last residual stage is (2, 2048, 7, 7).
  for (const auto& n : g.nodes()) {
    if (n.name == "s3.b2.relu") {
      EXPECT_EQ(g.value(n.output).shape, (Shape{2, 2048, 7, 7}));
    }
  }
}

TEST(ResNet50, ClassifiableFeatureMapCount) {
  // The paper's Table 3 classifies 105 feature maps for ResNet-50
  // (66 + 12 + 27). Our graph should be in the same regime.
  const auto g = resnet50(4);
  const auto tape = graph::build_backward_tape(g);
  const auto values = sim::classifiable_values(g, tape);
  EXPECT_GT(values.size(), 90u);
  EXPECT_LT(values.size(), 130u);
}

TEST(ResNet50, MemoryMatchesPaperFigure3) {
  // Figure 3: memory exceeds 16 GB around batch 192-256 and passes 50 GB
  // at batch 640.
  const auto g256 = resnet50(256);
  const auto g640 = resnet50(640);
  const double gib256 = bytes_to_gib(graph::incore_peak_bytes(g256));
  const double gib640 = bytes_to_gib(graph::incore_peak_bytes(g640));
  EXPECT_GT(gib256, 16.0);
  EXPECT_GT(gib640, 45.0);
  EXPECT_LT(gib640, 75.0);
}

TEST(ResNet18, SmallerThanResNet50) {
  const auto g18 = resnet18(1);
  const auto g50 = resnet50(1);
  EXPECT_LT(g18.num_nodes(), g50.num_nodes());
  EXPECT_LT(param_count(g18), param_count(g50));
  const double params_m = static_cast<double>(param_count(g18)) / 1e6;
  EXPECT_GT(params_m, 10.5);  // canonical: 11.7M
  EXPECT_LT(params_m, 13.0);
}

TEST(ResNext3d, StructureAndDepth) {
  const auto g = resnext101_3d(1, 8, 56);
  g.validate();
  // 3+4+23+3 = 33 blocks; >300 layer-ish nodes total, as the paper notes
  // (">300 layers" for ResNeXt-101).
  EXPECT_GT(g.num_nodes(), 250);
  // Cardinality-32 grouped conv present.
  bool grouped = false;
  for (const auto& n : g.nodes()) {
    if (n.kind != graph::LayerKind::kConv) continue;
    if (std::get<ConvAttrs>(n.attrs).groups == 32) grouped = true;
  }
  EXPECT_TRUE(grouped);
}

TEST(ResNext3d, MemoryGrowsWithInputSize) {
  // Figure 4: batch-1 memory grows roughly linearly with the 3-D input
  // volume; the benches sweep to sizes that overflow the 16 GiB device.
  const auto g16 = resnext101_3d(1, 16, 112);
  const auto g32 = resnext101_3d(1, 32, 112);
  const auto live16 =
      graph::incore_liveness(g16, graph::build_backward_tape(g16));
  const auto live32 =
      graph::incore_liveness(g32, graph::build_backward_tape(g32));
  // Doubling the frame count doubles the dynamic (activation) part; the
  // ~390 MB parameter pool is constant.
  EXPECT_EQ(live16.persistent_bytes, live32.persistent_bytes);
  EXPECT_GT(live32.peak_dynamic_bytes,
            static_cast<std::size_t>(1.8 *
                                     static_cast<double>(
                                         live16.peak_dynamic_bytes)));
  // The large-input corner of the sweep exceeds the V100's 16 GiB.
  const std::size_t big =
      graph::incore_peak_bytes(resnext101_3d(1, 128, 384));
  EXPECT_GT(bytes_to_gib(big), 16.0);
}

TEST(InceptionToy, BranchesAndConcat) {
  const auto g = inception_toy(2);
  g.validate();
  int concats = 0;
  for (const auto& n : g.nodes()) {
    concats += n.kind == graph::LayerKind::kConcat;
  }
  EXPECT_EQ(concats, 2);
  // Concat output channels = sum of branch channels (16+32+8+8 = 64).
  for (const auto& n : g.nodes()) {
    if (n.name == "inc1.concat") {
      EXPECT_EQ(g.value(n.output).shape.dim(1), 64);
    }
  }
}

TEST(PaperExample, EightLayerChain) {
  const auto g = paper_example();
  g.validate();
  int convs = 0, bns = 0;
  for (const auto& n : g.nodes()) {
    convs += n.kind == graph::LayerKind::kConv;
    bns += n.kind == graph::LayerKind::kBatchNorm;
  }
  EXPECT_EQ(convs, 5);  // layers 0-4 heavy
  EXPECT_EQ(bns, 3);    // layers 5-7 light
}

class ModelValidation
    : public ::testing::TestWithParam<testing::NamedModel> {};

TEST_P(ModelValidation, GraphInvariantsHold) {
  const auto g = GetParam().make();
  g.validate();
  EXPECT_GT(g.num_nodes(), 0);
  EXPECT_EQ(g.value(g.output()).shape, (Shape{1}));  // all end in a loss
  const auto tape = graph::build_backward_tape(g);
  EXPECT_EQ(tape.size(), static_cast<std::size_t>(g.num_nodes()));
  // Liveness must be computable without error on every model.
  EXPECT_GT(graph::incore_liveness(g, tape).peak_bytes, 0u);
}

INSTANTIATE_TEST_SUITE_P(
    Zoo, ModelValidation,
    ::testing::Values(
        testing::NamedModel{"mlp", [] { return mlp(2, 8, {16}, 4); }},
        testing::NamedModel{"small_cnn", [] { return small_cnn(2); }},
        testing::NamedModel{"alexnet", [] { return alexnet(2); }},
        testing::NamedModel{"vgg16", [] { return vgg16(1, 32); }},
        testing::NamedModel{"resnet18", [] { return resnet18(1, 64); }},
        testing::NamedModel{"resnet50", [] { return resnet50(1, 64); }},
        testing::NamedModel{"resnext101_3d",
                            [] { return resnext101_3d(1, 4, 32); }},
        testing::NamedModel{"inception_toy", [] { return inception_toy(1); }},
        testing::NamedModel{"paper_example",
                            [] { return paper_example(2, 16, 8); }}),
    testing::ParamName());

}  // namespace
}  // namespace pooch::models

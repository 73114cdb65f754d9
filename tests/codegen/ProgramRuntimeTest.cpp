//===----------------------------------------------------------------------===//
// ProgramRuntime: the key-independent half of an executor (context,
// encoder, bootstrap diagonals, encoded weights) is built once per program
// and shared, so a second key set - a re-setup, or a second executor over
// the same runtime - re-encodes nothing and runs correctly.
//===----------------------------------------------------------------------===//

#include "codegen/CkksExecutor.h"
#include "driver/AceCompiler.h"
#include "fhe/Serializer.h"
#include "nn/ModelZoo.h"
#include "support/Rng.h"

#include <gtest/gtest.h>

using namespace ace;

namespace {

std::vector<nn::Tensor> randomInputs(size_t Width, int Count) {
  Rng R(19);
  std::vector<nn::Tensor> Out(Count);
  for (nn::Tensor &T : Out) {
    T.Shape = {1, static_cast<int64_t>(Width)};
    T.Values.resize(Width);
    for (auto &V : T.Values)
      V = static_cast<float>(R.uniformReal(-1, 1));
  }
  return Out;
}

std::unique_ptr<driver::CompileResult>
compile(const onnx::Model &Model, const std::vector<nn::Tensor> &Inputs) {
  air::CompileOptions Opt;
  Opt.ToyParameters = true;
  Opt.LogScale = 45;
  Opt.LogFirstModulus = 55;
  Opt.CalibrationSamples = static_cast<int>(Inputs.size());
  Opt.Seed = 11;
  auto Result = driver::AceCompiler(Opt).compile(Model, Inputs);
  EXPECT_TRUE(Result.ok()) << Result.status().message();
  return Result.ok() ? Result.take() : nullptr;
}

void expectTracksCleartext(codegen::CkksExecutor &Exec,
                           const onnx::Model &Model, const nn::Tensor &In,
                           double Tol) {
  auto Clear = nn::executeSingle(Model.MainGraph, In);
  ASSERT_TRUE(Clear.ok());
  auto Logits = Exec.infer(In);
  ASSERT_TRUE(Logits.ok()) << Logits.status().message();
  ASSERT_EQ(Logits->size(), Clear->Values.size());
  for (size_t I = 0; I < Logits->size(); ++I)
    EXPECT_NEAR((*Logits)[I], Clear->Values[I], Tol) << "logit " << I;
}

std::vector<uint8_t> publicKeyBytes(const codegen::CkksExecutor &Exec) {
  std::vector<uint8_t> Bytes;
  EXPECT_FALSE(fhe::wire::save(Exec.publicKey(), Bytes));
  return Bytes;
}

// A second setup() used to keep encoded weights and rotation keys bound to
// the context it destroyed, and aborted in RnsPoly::checkCompatible.
TEST(ProgramRuntimeTest, SetupTwiceReplacesTheKeySet) {
  onnx::Model Model = nn::buildLinearInfer(3);
  std::vector<nn::Tensor> Inputs = randomInputs(84, 1);
  const nn::Tensor &In = Inputs[0];
  auto Compiled = compile(Model, Inputs);
  ASSERT_TRUE(Compiled);
  codegen::CkksExecutor Exec(Compiled->Program, Compiled->State);
  ASSERT_FALSE(Exec.setup(0));
  expectTracksCleartext(Exec, Model, In, 1e-2);
  std::vector<uint8_t> FirstKey = publicKeyBytes(Exec);
  ASSERT_FALSE(Exec.setup(12345));
  expectTracksCleartext(Exec, Model, In, 1e-2);
  EXPECT_NE(publicKeyBytes(Exec), FirstKey);
}

TEST(ProgramRuntimeTest, ExecutorsShareOneCopyOfDiagonalsAndWeights) {
  onnx::Model Model = nn::buildMlp({16, 12, 8}, 5);
  std::vector<nn::Tensor> Inputs = randomInputs(16, 4);
  const nn::Tensor &In = Inputs[0];
  auto Compiled = compile(Model, Inputs);
  ASSERT_TRUE(Compiled);
  ASSERT_GT(Compiled->State.BootstrapCount, 0u);
  auto Runtime = std::make_shared<codegen::ProgramRuntime>(Compiled->Program,
                                                           Compiled->State);
  codegen::CkksExecutor First(Compiled->Program, Compiled->State, Runtime);
  ASSERT_FALSE(First.setup(1));
  ASSERT_TRUE(First.infer(In).ok());
  size_t Weights = Runtime->weightBytes();
  size_t Diagonals = Runtime->diagonals().byteSize();
  EXPECT_GT(Weights, 0u);
  EXPECT_GT(Diagonals, 0u);
  EXPECT_EQ(First.memory().Plaintexts, Weights);

  codegen::CkksExecutor Second(Compiled->Program, Compiled->State, Runtime);
  Second.enableLazyRotationKeys();
  ASSERT_FALSE(Second.setup(2));
  EXPECT_EQ(&Second.context(), &First.context());
  EXPECT_NE(publicKeyBytes(Second), publicKeyBytes(First));
  expectTracksCleartext(Second, Model, In, 0.25);
  EXPECT_EQ(Runtime->weightBytes(), Weights);
  EXPECT_EQ(Runtime->diagonals().byteSize(), Diagonals);
}

} // namespace

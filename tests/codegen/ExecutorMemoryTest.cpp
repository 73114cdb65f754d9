//===----------------------------------------------------------------------===//
// CkksExecutor::memory(): the Figure 7 byte ledger is computed from the
// objects that own the bytes, so a lazy-key executor's evaluation-key
// bytes include its cached rotation keys (exactly the governor's EvalKeys
// charge), and repeated runs do not inflate the total.
//===----------------------------------------------------------------------===//

#include "codegen/CkksExecutor.h"
#include "driver/AceCompiler.h"
#include "nn/ModelZoo.h"
#include "support/ResourceGovernor.h"
#include "support/Rng.h"

#include <gtest/gtest.h>

using namespace ace;

namespace {

struct ExecutorMemoryTest : ::testing::Test {
  void SetUp() override {
    Rng R(7);
    Input.Shape = {1, 84};
    Input.Values.resize(84);
    for (auto &V : Input.Values)
      V = static_cast<float>(R.uniformReal(-1, 1));
    air::CompileOptions Opt;
    Opt.ToyParameters = true;
    Opt.LogScale = 45;
    Opt.LogFirstModulus = 55;
    auto Result =
        driver::AceCompiler(Opt).compile(nn::buildLinearInfer(3), {Input});
    ASSERT_TRUE(Result.ok()) << Result.status().message();
    Compiled = Result.take();
  }

  static size_t evalKeyCharge() {
    return ResourceGovernor::instance().stats().ChargedBytes[static_cast<
        size_t>(MemCategory::EvalKeys)];
  }

  nn::Tensor Input;
  std::unique_ptr<driver::CompileResult> Compiled;
};

TEST_F(ExecutorMemoryTest, LazyEvalKeyBytesIncludeCachedKeys) {
  size_t Baseline = evalKeyCharge();
  codegen::CkksExecutor Exec(Compiled->Program, Compiled->State);
  Exec.enableLazyRotationKeys();
  ASSERT_FALSE(Exec.setup());
  ASSERT_TRUE(Exec.infer(Input).ok());

  size_t Cached = evalKeyCharge() - Baseline;
  ASSERT_GT(Cached, 0u) << "the run materialized no rotation key";
  const fhe::EvalKeys &Keys = Exec.evalKeys();
  EXPECT_EQ(Keys.Rotations.size(), 0u); // lazy: only relin + conjugation
  EXPECT_EQ(Exec.memory().evaluationKeyBytes(),
            Keys.relinByteSize() + Keys.rotationByteSize() + Cached);
}

TEST_F(ExecutorMemoryTest, TotalIsStableAcrossRuns) {
  codegen::CkksExecutor Exec(Compiled->Program, Compiled->State);
  ASSERT_FALSE(Exec.setup());
  auto Ct = Exec.encryptInput(Input);
  ASSERT_TRUE(Ct.ok());
  ASSERT_TRUE(Exec.run(*Ct).ok());
  auto First = Exec.memory();
  ASSERT_TRUE(Exec.run(*Ct).ok());
  EXPECT_EQ(Exec.memory().total(), First.total());
  EXPECT_EQ(First.evaluationKeyBytes(), Exec.evalKeys().byteSize());
}

} // namespace

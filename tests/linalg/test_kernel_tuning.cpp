// Persistence tests for the per-host kernel-tuning cache: save/load
// round-trip, rejection of corrupt/mismatched files (the loader must fall
// back to built-in defaults rather than install garbage blocking), and the
// cpu-identity plumbing.
#include "linalg/kernel_tuning.hpp"

#include <gtest/gtest.h>

#include <cctype>
#include <cstdlib>
#include <fstream>
#include <string>

namespace hqr {
namespace {

std::string temp_path(const std::string& name) {
  return ::testing::TempDir() + "/" + name;
}

void write_file(const std::string& path, const std::string& text) {
  std::ofstream out(path, std::ios::trunc);
  ASSERT_TRUE(out) << path;
  out << text;
}

TEST(KernelTuning, SaveLoadRoundTrip) {
  const std::string path = temp_path("hqr-tuning-roundtrip/cache.json");
  KernelTuning t;
  t.cpu = "test-cpu-0";
  t.kernel = "avx512-16x8";
  t.blocking = {288, 320, 4092};
  ASSERT_TRUE(save_kernel_tuning(path, t));  // creates the parent dir

  KernelTuning r;
  ASSERT_TRUE(load_kernel_tuning(path, r));
  EXPECT_EQ(r.cpu, t.cpu);
  EXPECT_EQ(r.kernel, t.kernel);
  EXPECT_EQ(r.blocking.mc, t.blocking.mc);
  EXPECT_EQ(r.blocking.kc, t.blocking.kc);
  EXPECT_EQ(r.blocking.nc, t.blocking.nc);
}

// Caches written before the Householder panel knob was retired carry a
// "householder_panel" key (any value): they must still load their kernel
// and blocking rather than fall back to the defaults.
TEST(KernelTuning, RetiredPanelKeyStillLoads) {
  const std::string path = temp_path("hqr-tuning-legacy-panel.json");
  write_file(path, R"({
  "schema": "hqr-tuning-v1",
  "cpu": "legacy-cpu",
  "kernel": "avx2-12x4",
  "mc": 192,
  "kc": 320,
  "nc": 2048,
  "householder_panel": 2
})");
  KernelTuning r;
  ASSERT_TRUE(load_kernel_tuning(path, r));
  EXPECT_EQ(r.cpu, "legacy-cpu");
  EXPECT_EQ(r.kernel, "avx2-12x4");
  EXPECT_EQ(r.blocking.mc, 192);
  EXPECT_EQ(r.blocking.kc, 320);
  EXPECT_EQ(r.blocking.nc, 2048);
}

TEST(KernelTuning, EmptyKernelMeansBestSupported) {
  const std::string path = temp_path("hqr-tuning-empty-kernel.json");
  KernelTuning t = default_kernel_tuning();
  EXPECT_TRUE(t.kernel.empty());
  ASSERT_TRUE(save_kernel_tuning(path, t));
  KernelTuning r;
  r.kernel = "sentinel";
  ASSERT_TRUE(load_kernel_tuning(path, r));
  EXPECT_TRUE(r.kernel.empty());
}

TEST(KernelTuning, MissingFileFailsWithoutTouchingOut) {
  KernelTuning r;
  r.cpu = "untouched";
  r.blocking = {1, 2, 3};
  EXPECT_FALSE(load_kernel_tuning(temp_path("does-not-exist.json"), r));
  EXPECT_EQ(r.cpu, "untouched");
  EXPECT_EQ(r.blocking.mc, 1);
}

TEST(KernelTuning, CorruptFilesAreRejected) {
  struct Case {
    const char* name;
    const char* text;
  };
  const Case cases[] = {
      {"not-json.json", "this is not json at all"},
      {"empty.json", ""},
      {"wrong-schema.json",
       R"({"schema": "hqr-tuning-v999", "cpu": "x", "kernel": "",
           "mc": 144, "kc": 256, "nc": 4092})"},
      {"no-schema.json",
       R"({"cpu": "x", "mc": 144, "kc": 256, "nc": 4092})"},
      {"missing-blocking.json",
       R"({"schema": "hqr-tuning-v1", "cpu": "x", "kernel": "",
           "mc": 144})"},
      {"nonpositive-blocking.json",
       R"({"schema": "hqr-tuning-v1", "cpu": "x", "kernel": "",
           "mc": 0, "kc": 256, "nc": 4092})"},
      {"non-numeric.json",
       R"({"schema": "hqr-tuning-v1", "cpu": "x", "kernel": "",
           "mc": "fast", "kc": 256, "nc": 4092})"},
  };
  for (const Case& c : cases) {
    const std::string path = temp_path(c.name);
    write_file(path, c.text);
    KernelTuning r;
    r.cpu = "untouched";
    EXPECT_FALSE(load_kernel_tuning(path, r)) << c.name;
    EXPECT_EQ(r.cpu, "untouched") << c.name;
  }
}

TEST(KernelTuning, CpuMismatchLoadsButIsCallersDecision) {
  // The loader reports foreign caches faithfully; consumption-side policy
  // (ensure_tuning_applied) is what skips them.
  const std::string path = temp_path("hqr-tuning-foreign.json");
  KernelTuning t;
  t.cpu = "some-other-machine";
  t.blocking = {96, 192, 1024};
  ASSERT_TRUE(save_kernel_tuning(path, t));
  KernelTuning r;
  ASSERT_TRUE(load_kernel_tuning(path, r));
  EXPECT_EQ(r.cpu, "some-other-machine");
  EXPECT_NE(r.cpu, tuning_cpu_id());
}

TEST(KernelTuning, CpuIdIsSanitizedAndStable) {
  const std::string id = tuning_cpu_id();
  EXPECT_FALSE(id.empty());
  for (const char ch : id) {
    const unsigned char u = static_cast<unsigned char>(ch);
    EXPECT_TRUE((std::isalnum(u) && !std::isupper(u)) || ch == '-')
        << "bad char '" << ch << "' in " << id;
  }
  EXPECT_NE(id.front(), '-');
  EXPECT_NE(id.back(), '-');
  EXPECT_EQ(id, tuning_cpu_id());  // deterministic across calls
}

TEST(KernelTuning, DefaultPathUsesCpuId) {
  const std::string path = default_tuning_path();
  // Either the HQR_TUNING_FILE override or a per-host cache file.
  if (const char* env = std::getenv("HQR_TUNING_FILE"); env && env[0]) {
    EXPECT_EQ(path, env);
  } else {
    EXPECT_NE(path.find("hqr/tuning-" + tuning_cpu_id() + ".json"),
              std::string::npos)
        << path;
  }
}

TEST(KernelTuning, SaveFailsCleanlyOnUnwritablePath) {
  KernelTuning t = default_kernel_tuning();
  EXPECT_FALSE(save_kernel_tuning("/proc/hqr-cannot-write-here/x.json", t));
}

}  // namespace
}  // namespace hqr

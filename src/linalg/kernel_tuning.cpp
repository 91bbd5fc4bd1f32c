#include "linalg/kernel_tuning.hpp"

#include <cctype>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <mutex>
#include <sstream>

#include "linalg/micro_kernel.hpp"

#if defined(__x86_64__) || defined(__i386__)
#include <cpuid.h>
#endif

namespace hqr {
namespace {

constexpr const char* kSchema = "hqr-tuning-v1";

std::string cpu_brand_string() {
#if defined(__x86_64__) || defined(__i386__)
  unsigned int regs[4] = {0, 0, 0, 0};
  if (__get_cpuid(0x80000000u, &regs[0], &regs[1], &regs[2], &regs[3]) &&
      regs[0] >= 0x80000004u) {
    char brand[49] = {};
    for (unsigned int leaf = 0; leaf < 3; ++leaf) {
      __get_cpuid(0x80000002u + leaf, &regs[0], &regs[1], &regs[2], &regs[3]);
      std::memcpy(brand + leaf * 16, regs, 16);
    }
    return brand;
  }
#endif
  return "generic";
}

// Minimal flat-JSON field extraction: enough for the single-object file
// this module writes. Returns false when the key is absent.
bool json_string(const std::string& text, const std::string& key,
                 std::string& out) {
  const std::string needle = "\"" + key + "\"";
  std::size_t p = text.find(needle);
  if (p == std::string::npos) return false;
  p = text.find(':', p + needle.size());
  if (p == std::string::npos) return false;
  p = text.find('"', p);
  if (p == std::string::npos) return false;
  const std::size_t q = text.find('"', p + 1);
  if (q == std::string::npos) return false;
  out = text.substr(p + 1, q - p - 1);
  return true;
}

bool json_int(const std::string& text, const std::string& key, int& out) {
  const std::string needle = "\"" + key + "\"";
  std::size_t p = text.find(needle);
  if (p == std::string::npos) return false;
  p = text.find(':', p + needle.size());
  if (p == std::string::npos) return false;
  ++p;
  while (p < text.size() && std::isspace(static_cast<unsigned char>(text[p])))
    ++p;
  char* end = nullptr;
  const long v = std::strtol(text.c_str() + p, &end, 10);
  if (end == text.c_str() + p) return false;
  out = static_cast<int>(v);
  return true;
}

std::once_flag g_apply_once;

}  // namespace

KernelTuning default_kernel_tuning() {
  KernelTuning t;
  t.cpu = tuning_cpu_id();
  t.kernel = "";  // best supported
  t.blocking = GemmBlocking{};
  return t;
}

std::string tuning_cpu_id() {
  const std::string brand = cpu_brand_string();
  std::string id;
  bool dash = true;  // collapse runs, no leading dash
  for (const char ch : brand) {
    const unsigned char u = static_cast<unsigned char>(ch);
    if (std::isalnum(u)) {
      id.push_back(static_cast<char>(std::tolower(u)));
      dash = false;
    } else if (!dash) {
      id.push_back('-');
      dash = true;
    }
  }
  while (!id.empty() && id.back() == '-') id.pop_back();
  return id.empty() ? "generic" : id;
}

std::string default_tuning_path() {
  if (const char* env = std::getenv("HQR_TUNING_FILE"); env && env[0])
    return env;
  // Appended into one reserved string: GCC 12 reports a false -Wrestrict
  // inside libstdc++ for the operator+ and operator= forms.
  std::string path;
  path.reserve(256);
  if (const char* xdg = std::getenv("XDG_CACHE_HOME"); xdg && xdg[0]) {
    path.append(xdg);
  } else if (const char* home = std::getenv("HOME"); home && home[0]) {
    path.append(home).append("/.cache");
  } else {
    path.append(".");
  }
  path.append("/hqr/tuning-").append(tuning_cpu_id()).append(".json");
  return path;
}

bool load_kernel_tuning(const std::string& path, KernelTuning& out) {
  std::ifstream in(path);
  if (!in) return false;
  std::stringstream buf;
  buf << in.rdbuf();
  const std::string text = buf.str();

  std::string schema;
  if (!json_string(text, "schema", schema) || schema != kSchema) return false;
  KernelTuning t;
  if (!json_string(text, "cpu", t.cpu)) return false;
  json_string(text, "kernel", t.kernel);
  if (!json_int(text, "mc", t.blocking.mc) ||
      !json_int(text, "kc", t.blocking.kc) ||
      !json_int(text, "nc", t.blocking.nc))
    return false;
  if (t.blocking.mc < 1 || t.blocking.kc < 1 || t.blocking.nc < 1)
    return false;
  out = t;
  return true;
}

bool save_kernel_tuning(const std::string& path, const KernelTuning& tuning) {
  std::error_code ec;
  const std::filesystem::path p(path);
  if (p.has_parent_path())
    std::filesystem::create_directories(p.parent_path(), ec);
  std::ofstream outf(path, std::ios::trunc);
  if (!outf) return false;
  outf << "{\n"
       << "  \"schema\": \"" << kSchema << "\",\n"
       << "  \"cpu\": \"" << tuning.cpu << "\",\n"
       << "  \"kernel\": \"" << tuning.kernel << "\",\n"
       << "  \"mc\": " << tuning.blocking.mc << ",\n"
       << "  \"kc\": " << tuning.blocking.kc << ",\n"
       << "  \"nc\": " << tuning.blocking.nc << "\n"
       << "}\n";
  return static_cast<bool>(outf);
}

void apply_kernel_tuning(const KernelTuning& tuning) {
  set_gemm_blocking(tuning.blocking);
  const char* isa_env = std::getenv("HQR_KERNEL_ISA");
  if ((isa_env == nullptr || isa_env[0] == '\0') && !tuning.kernel.empty())
    set_active_micro_kernel(tuning.kernel);  // no-op on unknown/unsupported
}

void ensure_tuning_applied() {
  std::call_once(g_apply_once, [] {
    const char* mode = std::getenv("HQR_TUNING");
    if (mode != nullptr && std::strcmp(mode, "off") == 0) return;
    KernelTuning t;
    if (!load_kernel_tuning(default_tuning_path(), t)) return;
    // A cache produced on another machine is stale for this one: ignore it
    // (the defaults are already in effect).
    if (t.cpu != tuning_cpu_id()) return;
    // Apply piecewise, skipping any knob already chosen deliberately
    // (tests and tools set these before constructing workspaces).
    if (!gemm_blocking_was_set()) set_gemm_blocking(t.blocking);
    if (!micro_kernel_was_set() && !t.kernel.empty())
      set_active_micro_kernel(t.kernel);  // no-op on unknown/unsupported
  });
}

}  // namespace hqr

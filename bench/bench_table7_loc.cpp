// Table VII reproduction: lines of code to shift a CPU-only NF to DHL.
//
// The paper reports 33 LoC (ipsec-crypto) and 35 LoC (pattern-matching) of
// modifications.  Our example applications mark the DHL-specific block with
// [DHL-SHIFT-BEGIN]/[DHL-SHIFT-END] comment lines; this bench counts the
// non-empty, non-comment lines inside, which is the same quantity.  A marker
// counts only as a comment line of its own, so prose that names the markers
// (the examples' header comments do) opens no block.

#include <cstdio>
#include <fstream>
#include <sstream>
#include <string>
#include <string_view>

namespace {

int count_shift_loc(const std::string& path) {
  std::ifstream in{path};
  if (!in) return -1;
  std::string line;
  bool inside = false;
  int count = 0;
  while (std::getline(in, line)) {
    const auto first = line.find_first_not_of(" \t");
    if (first == std::string::npos) continue;  // blank
    const std::string_view text = std::string_view{line}.substr(first);
    if (text.starts_with("// [DHL-SHIFT-BEGIN]")) {
      inside = true;
      continue;
    }
    if (text.starts_with("// [DHL-SHIFT-END]")) {
      inside = false;
      continue;
    }
    if (inside && !text.starts_with("//")) ++count;
  }
  return count;
}

}  // namespace

int main() {
  const std::string dir = DHL_EXAMPLES_DIR;
  const int ipsec = count_shift_loc(dir + "/ipsec_gateway_app.cpp");
  const int nids = count_shift_loc(dir + "/nids_app.cpp");

  std::printf(
      "\n=== Table VII: lines of code to shift the CPU-only NF to DHL ===\n");
  std::printf("%-22s %12s %12s\n", "Accelerator Module", "LoC (ours)",
              "LoC (paper)");
  std::printf("%-22s %12d %12d\n", "ipsec-crypto", ipsec, 33);
  std::printf("%-22s %12d %12d\n", "pattern-matching", nids, 35);
  std::printf(
      "\n(ours = code lines in the [DHL-SHIFT] block of the example apps;\n"
      "the shift is tens of lines in both systems -- the paper's point.)\n");
  return (ipsec > 0 && nids > 0) ? 0 : 1;
}

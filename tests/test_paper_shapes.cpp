// Paper-shape checks on the committed Figure 6 goldens
// (bench/golden/bench_fig6_{ipsec,nids}.txt).  A golden test says a bench's
// stdout changed; these say whether a golden still has the paper's shapes,
// so a re-bless that loses paper fidelity fails here too.  They read the
// committed files and run no bench.
//
// Two deviations from the paper stay visible and are deliberately not
// asserted (EXPERIMENTS.md, Figure 6): NIDS DHL latency rises at 1500 B
// where the paper's curve falls, and both 64 B DHL medians sit above the
// "< 10 us" the footers quote from the paper.

#include <gtest/gtest.h>

#include <fstream>
#include <sstream>
#include <string>
#include <vector>

namespace {

/// One row of a Figure 6 panel: the packet size and the measured (first)
/// number of its CPU-only and DHL columns.
struct Row {
  int size = 0;
  double cpu = 0;
  double dhl = 0;
};

const std::vector<int> kSizes{64, 128, 256, 512, 1024, 1500};

std::vector<std::string> split_cells(const std::string& line) {
  std::vector<std::string> cells;
  std::istringstream in{line};
  for (std::string cell; std::getline(in, cell, '|');) cells.push_back(cell);
  return cells;
}

/// The rows of the panel whose title line starts with `title` in
/// bench/golden/<bench>.txt.  The panel's header must name the CPU-only
/// and DHL columns where the rows are read.
std::vector<Row> read_panel(const std::string& bench,
                            const std::string& title) {
  const std::string path = std::string{DHL_GOLDEN_DIR} + "/" + bench + ".txt";
  std::ifstream in{path};
  EXPECT_TRUE(in) << "cannot open " << path;
  std::string line;
  while (std::getline(in, line) && line.rfind(title, 0) != 0) {
  }
  EXPECT_TRUE(in) << "no panel '" << title << "' in " << path;

  std::getline(in, line);
  const std::vector<std::string> header = split_cells(line);
  EXPECT_GE(header.size(), 3u) << line;
  if (header.size() < 3) return {};
  EXPECT_NE(header[1].find("CPU-only"), std::string::npos) << line;
  EXPECT_NE(header[2].find("DHL"), std::string::npos) << line;
  std::getline(in, line);  // the rule under the header

  std::vector<Row> rows;
  while (std::getline(in, line) && line.find('|') != std::string::npos) {
    const std::vector<std::string> cells = split_cells(line);
    if (cells.size() < 3) {
      ADD_FAILURE() << "short row in " << path << ": " << line;
      break;
    }
    Row r;
    std::istringstream{cells[0]} >> r.size;
    std::istringstream{cells[1]} >> r.cpu;
    std::istringstream{cells[2]} >> r.dhl;
    rows.push_back(r);
  }
  std::vector<int> sizes;
  for (const Row& r : rows) sizes.push_back(r.size);
  EXPECT_EQ(sizes, kSizes) << title;
  return rows;
}

struct Panel {
  const char* bench;
  const char* title;
};

TEST(Fig6Shapes, DhlThroughputIsAtLeastFiveTimesCpuOnlyAt64B) {
  for (const Panel p : {Panel{"bench_fig6_ipsec", "=== Figure 6(a)"},
                        Panel{"bench_fig6_nids", "=== Figure 6(c)"}}) {
    SCOPED_TRACE(p.title);
    const std::vector<Row> rows = read_panel(p.bench, p.title);
    ASSERT_FALSE(rows.empty());
    ASSERT_GT(rows[0].cpu, 0.0);
    EXPECT_GE(rows[0].dhl / rows[0].cpu, 5.0)
        << "DHL " << rows[0].dhl << " vs CPU-only " << rows[0].cpu << " Gbps";
  }
}

TEST(Fig6Shapes, CpuOnlyMedianLatencyRisesWithPacketSize) {
  for (const Panel p : {Panel{"bench_fig6_ipsec", "=== Figure 6(b)"},
                        Panel{"bench_fig6_nids", "=== Figure 6(d)"}}) {
    SCOPED_TRACE(p.title);
    const std::vector<Row> rows = read_panel(p.bench, p.title);
    for (std::size_t i = 1; i < rows.size(); ++i) {
      EXPECT_GT(rows[i].cpu, rows[i - 1].cpu)
          << rows[i - 1].size << " B -> " << rows[i].size << " B";
    }
  }
}

TEST(Fig6Shapes, IpsecDhlMedianLatencyFallsWithPacketSize) {
  // The 6 KB batch fills faster with larger packets, so the batch-fill wait
  // shrinks.  The NIDS curve breaks this at 1500 B (see the file comment).
  const std::vector<Row> rows =
      read_panel("bench_fig6_ipsec", "=== Figure 6(b)");
  for (std::size_t i = 1; i < rows.size(); ++i) {
    EXPECT_LT(rows[i].dhl, rows[i - 1].dhl)
        << rows[i - 1].size << " B -> " << rows[i].size << " B";
  }
}

}  // namespace

#include "ledger.h"

#include <algorithm>
#include <cmath>
#include <cstdlib>
#include <cstring>

namespace sc::perfbench {

LayerSeconds AttributeJob(double start, double end, std::vector<Leaf> leaves) {
  LayerSeconds rows{};
  std::vector<double> cuts = {start, end};
  for (Leaf& leaf : leaves) {
    leaf.start = std::clamp(leaf.start, start, end);
    leaf.end = std::clamp(leaf.end, start, end);
    cuts.push_back(leaf.start);
    cuts.push_back(leaf.end);
  }
  std::sort(cuts.begin(), cuts.end());
  cuts.erase(std::unique(cuts.begin(), cuts.end()), cuts.end());
  std::vector<const Leaf*> active;
  for (std::size_t i = 0; i + 1 < cuts.size(); ++i) {
    const double a = cuts[i];
    const double b = cuts[i + 1];
    active.clear();
    for (const Leaf& leaf : leaves) {
      if (leaf.start <= a && leaf.end >= b) active.push_back(&leaf);
    }
    if (active.empty()) {
      rows[kUnattributed] += b - a;
      continue;
    }
    const double each = (b - a) / static_cast<double>(active.size());
    for (const Leaf* leaf : active) {
      for (int l = 0; l < kNumLayers; ++l) rows[l] += each * leaf->share[l];
    }
  }
  return rows;
}

bool ArgNumber(const std::string& args, const char* key, double* value) {
  const std::string needle = std::string("\"") + key + "\":";
  const std::size_t at = args.find(needle);
  if (at == std::string::npos) return false;
  const char* begin = args.c_str() + at + needle.size();
  char* stop = nullptr;
  *value = std::strtod(begin, &stop);
  return stop != begin;
}

namespace {

Leaf WholeLeaf(const obs::TraceEvent& event, Layer layer) {
  Leaf leaf;
  leaf.start = event.start_seconds;
  leaf.end = event.start_seconds + event.dur_seconds;
  leaf.share[layer] = 1.0;
  return leaf;
}

}  // namespace

bool LeafFromEvent(const obs::TraceEvent& event, Leaf* leaf) {
  if (event.instant || event.dur_seconds <= 0.0) return false;
  const std::string& c = event.category;
  if (c == "job") {
    if (event.name != "queued" && event.name != "wait-budget") return false;
    *leaf = WholeLeaf(event, kService);
  } else if (c == "plan") {
    *leaf = WholeLeaf(event, kOpt);
  } else if (c == "publish") {
    *leaf = WholeLeaf(event, kRuntime);
  } else if (c == "materialize") {
    *leaf = WholeLeaf(event, kStorage);
  } else if (c == "morsel") {
    *leaf = WholeLeaf(event, kEngine);
  } else if (c == "node") {
    // A node span covers its reads, compute and blocking write back to
    // back on one thread; what is left is runtime work (resolve, pin,
    // catalog put) inside the node.
    double read = 0.0, compute = 0.0, write = 0.0;
    ArgNumber(event.args_json, "read_s", &read);
    ArgNumber(event.args_json, "compute_s", &compute);
    ArgNumber(event.args_json, "write_s", &write);
    const double parts = read + compute + write;
    const double whole = std::max(event.dur_seconds, parts);
    *leaf = WholeLeaf(event, kRuntime);
    leaf->share[kRuntime] = (whole - parts) / whole;
    leaf->share[kEngine] = compute / whole;
    leaf->share[kStorage] = (read + write) / whole;
  } else {
    return false;
  }
  return true;
}

bool LedgerSelfTest() {
  auto leaf = [](double s, double e, Layer layer) {
    Leaf l;
    l.start = s;
    l.end = e;
    l.share[layer] = 1.0;
    return l;
  };
  auto near = [](double a, double b) { return std::fabs(a - b) < 1e-12; };
  // Job [0,10): engine [1,5) overlaps storage [3,7); a nested engine span
  // [2,3) inside the first must not add time; [9,12) is clipped to 10.
  const LayerSeconds rows = AttributeJob(
      0.0, 10.0,
      {leaf(1, 5, kEngine), leaf(3, 7, kStorage), leaf(2, 3, kEngine),
       leaf(9, 12, kOpt)});
  double total = 0.0;
  for (double r : rows) total += r;
  return near(total, 10.0) && near(rows[kEngine], 3.0) &&
         near(rows[kStorage], 3.0) && near(rows[kOpt], 1.0) &&
         near(rows[kUnattributed], 3.0);
}

}  // namespace sc::perfbench

#include "graph/graph_io.h"

#include <algorithm>
#include <cstdint>
#include <fstream>
#include <sstream>
#include <string_view>
#include <vector>

namespace kbiplex {
namespace {

bool IsCommentOrEmpty(std::string_view line) {
  for (char c : line) {
    if (c == ' ' || c == '\t' || c == '\r') continue;
    return c == '%' || c == '#';
  }
  return true;  // blank line
}

/// Strict non-negative integer parse: the whole token must be digits, so
/// negative ids, floats ("0.5"), and trailing garbage ("3x") are rejected
/// instead of being silently truncated or wrapped the way stream
/// extraction into an unsigned would. At most 19 digits fit: their
/// maximum (~1.0e19) still fits uint64 (< 2^64 ~ 1.8e19) without
/// overflow; the id range itself is enforced by the caller.
bool ParseId(std::string_view token, uint64_t* out) {
  if (token.empty() || token.size() > 19) return false;
  uint64_t value = 0;
  for (char c : token) {
    if (c < '0' || c > '9') return false;
    value = value * 10 + static_cast<uint64_t>(c - '0');
  }
  *out = value;
  return true;
}

/// One scanned data line, reduced to exactly what parsing and header
/// disambiguation need — no per-token strings. Only the first line's
/// record is retained; later lines stream straight into the edge vector.
struct LineRec {
  size_t line_no = 0;
  uint32_t columns = 0;   // token count, saturated at 4 ("4 or more")
  bool ids_ok = false;    // the first two tokens parse as ids (a, b)
  bool third_ok = false;  // a third token exists and parses as an integer
  uint64_t a = 0;
  uint64_t b = 0;
  uint64_t c = 0;
};

LineRec ScanLine(std::string_view view, size_t line_no) {
  LineRec rec;
  rec.line_no = line_no;
  const auto is_blank = [](char ch) {
    return ch == ' ' || ch == '\t' || ch == '\r';
  };
  std::string_view tok[3];
  for (size_t i = 0; i < view.size();) {
    while (i < view.size() && is_blank(view[i])) ++i;
    if (i >= view.size()) break;
    const size_t start = i;
    while (i < view.size() && !is_blank(view[i])) ++i;
    if (rec.columns < 3) tok[rec.columns] = view.substr(start, i - start);
    if (rec.columns < 4) ++rec.columns;
  }
  rec.ids_ok = rec.columns >= 2 && ParseId(tok[0], &rec.a) &&
               ParseId(tok[1], &rec.b);
  rec.third_ok = rec.columns >= 3 && ParseId(tok[2], &rec.c);
  return rec;
}

/// Incremental edge-list parser: feed lines one at a time (Consume) and
/// resolve the header decision once at end of input (Finish). Holds the
/// first data line back (it may be an "L R M" header); every later line
/// is validated immediately and its edge appended, while the aggregates
/// the header decision needs — column uniformity, maximum ids, and the
/// first line violating the candidate header's declared ranges — are
/// folded in on the fly. Peak state is the edge vector plus O(1)
/// scalars, which is what lets LoadEdgeList stream a file it never holds
/// whole.
class EdgeListStreamParser {
 public:
  /// Feeds the next line (without its '\n'; a trailing '\r' is
  /// tolerated). Returns false once a parse error is recorded — callers
  /// may stop reading input at that point.
  bool Consume(std::string_view line) {
    ++line_no_;
    if (failed_ || IsCommentOrEmpty(line)) return !failed_;
    if (!have_first_) {
      have_first_ = true;
      first_ = ScanLine(line, line_no_);
      return true;
    }
    const LineRec rec = ScanLine(line, line_no_);
    if (!rec.ids_ok) {
      return Fail(rec.line_no, "expected two non-negative vertex ids");
    }
    if (rec.a >= kInvalidVertex || rec.b >= kInvalidVertex) {
      return Fail(rec.line_no, "vertex id too large");
    }
    all_two_columns_ = all_two_columns_ && rec.columns == 2;
    if (rec.a > max_a_) max_a_line_ = rec.line_no;
    if (rec.b > max_b_) max_b_line_ = rec.line_no;
    max_a_ = std::max(max_a_, rec.a);
    max_b_ = std::max(max_b_, rec.b);
    if (out_of_declared_range_line_ == 0 &&
        (rec.a >= first_.a || rec.b >= first_.b)) {
      out_of_declared_range_line_ = rec.line_no;
    }
    edges_.emplace_back(static_cast<VertexId>(rec.a),
                        static_cast<VertexId>(rec.b));
    return true;
  }

  /// Ends the input: disambiguates the held-back first line (header vs
  /// edge) and builds the graph. The parser is spent afterwards.
  LoadResult Finish() {
    if (failed_) return {std::nullopt, error_};
    // Header detection. A first data line with exactly three integer
    // columns may be an "L R M" declaration or a KONECT-style weighted
    // edge "u v w"; the shape of the rest of the file disambiguates:
    //   - every later line has exactly two columns: the three-column line
    //     can only be a header, so its claim is validated loudly — the
    //     declared edge count must match and every id must be in range.
    //   - later lines carry extra columns (weighted/mixed data): the
    //     header interpretation is accepted when it validates (declared
    //     edge count matches, every id in range). If only the count is
    //     off while every id respects the declared sizes, both readings
    //     are suspect and the parse fails loudly instead of guessing; if
    //     the ids do not respect the sizes either, the line is an edge
    //     like the others (the fix for headerless weighted edge lists
    //     whose first edge used to be swallowed as a header).
    //   - a lone three-column line is a header only when it declares zero
    //     edges; otherwise it is a single weighted edge.
    // Duplicate edge lines are common in real interaction data and the
    // graph model collapses them, so a declared count may honestly refer
    // to distinct edges; computed lazily, only when the raw count
    // mismatches.
    const auto distinct_edge_count = [this] {
      std::vector<BipartiteGraph::Edge> copy = edges_;
      std::sort(copy.begin(), copy.end());
      return static_cast<size_t>(std::unique(copy.begin(), copy.end()) -
                                 copy.begin());
    };

    bool have_header = false;
    uint64_t num_left = 0;
    uint64_t num_right = 0;
    if (have_first_ && first_.columns == 3 && first_.ids_ok &&
        first_.third_ok) {
      const uint64_t l = first_.a;
      const uint64_t r = first_.b;
      const uint64_t m = first_.c;
      const bool range_ok = out_of_declared_range_line_ == 0;
      if (edges_.empty()) {
        // A lone three-column line: an "L R M" header of an edgeless
        // graph when M = 0; with M > 0 it reads both as a truncated
        // header and as a single weighted edge — refuse to guess.
        if (m != 0) {
          Fail(first_.line_no,
               "ambiguous three-column line: reads as an \"L R M\" header "
               "declaring " +
                   std::to_string(m) +
                   " edges in a file with no edge lines (truncated?), and "
                   "as a single weighted edge");
          return {std::nullopt, error_};
        }
        if (l > kInvalidVertex || r > kInvalidVertex) {
          Fail(first_.line_no, "declared side size too large");
          return {std::nullopt, error_};
        }
        have_header = true;
        num_left = l;
        num_right = r;
      } else if (all_two_columns_) {
        if (l > kInvalidVertex || r > kInvalidVertex) {
          Fail(first_.line_no, "declared side size too large");
          return {std::nullopt, error_};
        }
        if (m != edges_.size() && m != distinct_edge_count()) {
          Fail(first_.line_no,
               "header declares " + std::to_string(m) +
                   " edges but the file has " +
                   std::to_string(edges_.size()) + " edge lines");
          return {std::nullopt, error_};
        }
        if (!range_ok) {
          Fail(out_of_declared_range_line_,
               "vertex id out of declared range");
          return {std::nullopt, error_};
        }
        have_header = true;
        num_left = l;
        num_right = r;
      } else if (l <= kInvalidVertex && r <= kInvalidVertex) {
        const bool count_ok =
            m == edges_.size() || m == distinct_edge_count();
        if (count_ok && range_ok) {
          have_header = true;
          num_left = l;
          num_right = r;
        } else if (range_ok) {
          Fail(first_.line_no,
               "ambiguous three-column first line: as an \"L R M\" header "
               "its declared edge count does not match the " +
                   std::to_string(edges_.size()) +
                   " edge lines; fix the count or comment the line out if "
                   "it is an edge");
          return {std::nullopt, error_};
        }
      }
    }
    if (have_header) {
      // Checked before FromEdges allocates the offset arrays. A header
      // reading guarantees every id is below the declared size.
      const uint64_t left_ids = edges_.empty() ? 0 : max_a_ + 1;
      const uint64_t right_ids = edges_.empty() ? 0 : max_b_ + 1;
      if (num_left - left_ids > kMaxDeclaredIsolatedVertices ||
          num_right - right_ids > kMaxDeclaredIsolatedVertices) {
        Fail(first_.line_no,
             "declared side size exceeds the largest id + 1 by more than " +
                 std::to_string(kMaxDeclaredIsolatedVertices) +
                 " isolated vertices");
        return {std::nullopt, error_};
      }
    } else {
      // The held-back first line is an edge like the others; trailing
      // columns (weights, timestamps) are ignored throughout.
      if (have_first_) {
        if (!first_.ids_ok) {
          Fail(first_.line_no, "expected two non-negative vertex ids");
          return {std::nullopt, error_};
        }
        if (first_.a >= kInvalidVertex || first_.b >= kInvalidVertex) {
          Fail(first_.line_no, "vertex id too large");
          return {std::nullopt, error_};
        }
        edges_.emplace_back(static_cast<VertexId>(first_.a),
                            static_cast<VertexId>(first_.b));
        // The first line is the earliest, so it wins ties.
        if (first_.a >= max_a_) max_a_line_ = first_.line_no;
        if (first_.b >= max_b_) max_b_line_ = first_.line_no;
        max_a_ = std::max(max_a_, first_.a);
        max_b_ = std::max(max_b_, first_.b);
      }
      if (!edges_.empty()) {
        num_left = max_a_ + 1;
        num_right = max_b_ + 1;
      }
      // Each edge line touches one vertex per side, so an inferred side
      // more than kMaxDeclaredIsolatedVertices above the edge count has
      // that many isolated vertices, the header path's bound. Checked
      // before FromEdges allocates the offset arrays.
      const uint64_t limit = edges_.size() + kMaxDeclaredIsolatedVertices;
      if (num_left > limit || num_right > limit) {
        Fail(num_left > limit ? max_a_line_ : max_b_line_,
             "inferred side size exceeds the edge count by more than " +
                 std::to_string(kMaxDeclaredIsolatedVertices));
        return {std::nullopt, error_};
      }
    }
    return {BipartiteGraph::FromEdges(num_left, num_right,
                                      std::move(edges_)),
            ""};
  }

 private:
  bool Fail(size_t line_no, const std::string& why) {
    failed_ = true;
    error_ = "parse error at line " + std::to_string(line_no) + ": " + why;
    return false;
  }

  size_t line_no_ = 0;
  bool have_first_ = false;
  bool failed_ = false;
  std::string error_;
  LineRec first_;
  std::vector<BipartiteGraph::Edge> edges_;
  bool all_two_columns_ = true;
  uint64_t max_a_ = 0;
  uint64_t max_b_ = 0;
  size_t max_a_line_ = 0;  // line of the first occurrence of max_a_
  size_t max_b_line_ = 0;
  size_t out_of_declared_range_line_ = 0;  // 0 = none
};

}  // namespace

LoadResult ParseEdgeList(const std::string& text) {
  EdgeListStreamParser parser;
  const std::string_view view(text);
  size_t pos = 0;
  while (pos < view.size()) {
    size_t nl = view.find('\n', pos);
    if (nl == std::string_view::npos) nl = view.size();
    if (!parser.Consume(view.substr(pos, nl - pos))) break;
    pos = nl + 1;
  }
  return parser.Finish();
}

LoadResult LoadEdgeList(const std::string& path, size_t chunk_bytes) {
  std::ifstream f(path, std::ios::binary);
  if (!f) return {std::nullopt, "cannot open file: " + path};
  if (chunk_bytes == 0) chunk_bytes = 1;

  // Bounded-buffer line reader: one chunk in flight plus the carryover of
  // a line straddling the chunk boundary. The parser never sees chunk
  // edges — only whole lines — so every header heuristic behaves exactly
  // as it does on an in-memory string.
  EdgeListStreamParser parser;
  std::string chunk(chunk_bytes, '\0');
  std::string carry;
  bool stopped = false;
  while (!stopped && f) {
    f.read(chunk.data(), static_cast<std::streamsize>(chunk.size()));
    const size_t got = static_cast<size_t>(f.gcount());
    if (got == 0) break;
    const std::string_view view(chunk.data(), got);
    size_t pos = 0;
    while (pos < got) {
      const size_t nl = view.find('\n', pos);
      if (nl == std::string_view::npos) {
        carry.append(view.substr(pos));
        break;
      }
      bool ok;
      if (carry.empty()) {
        ok = parser.Consume(view.substr(pos, nl - pos));
      } else {
        carry.append(view.substr(pos, nl - pos));
        ok = parser.Consume(carry);
        carry.clear();
      }
      if (!ok) {
        stopped = true;  // error recorded; Finish() reports it
        break;
      }
      pos = nl + 1;
    }
  }
  // A final line without a trailing newline still counts.
  if (!stopped && !carry.empty()) parser.Consume(carry);
  return parser.Finish();
}

std::string ToEdgeListString(const BipartiteGraph& g) {
  std::ostringstream out;
  out << "% kbiplex bipartite edge list\n";
  out << g.NumLeft() << " " << g.NumRight() << " " << g.NumEdges() << "\n";
  for (VertexId l = 0; l < g.NumLeft(); ++l) {
    for (VertexId r : g.LeftNeighbors(l)) {
      out << l << " " << r << "\n";
    }
  }
  return out.str();
}

std::string SaveEdgeList(const BipartiteGraph& g, const std::string& path) {
  std::ofstream f(path);
  if (!f) return "cannot open file for writing: " + path;
  f << ToEdgeListString(g);
  if (!f) return "write failure: " + path;
  return "";
}

}  // namespace kbiplex

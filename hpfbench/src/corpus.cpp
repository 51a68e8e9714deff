// Generator of the compile_corpus workload's HPF-lite routines.
//
// Every routine declares the same kinds of objects — a 1-D template with
// an identity-aligned and a reversed-aligned array, a directly
// distributed 1-D array, a 2-D template with an identity-aligned and a
// transposed-aligned array, a directly distributed 2-D array, and three
// interfaces — and then a long random statement list.
//
// Two random streams write a routine. The shape stream depends only on
// the routine's position in the corpus: statement kinds, nesting, body
// lengths, loop trip counts. The operand stream depends on the seed too:
// which arrays a statement references, which object a remap targets and
// with which format or alignment, which interface a call names. Corpora
// of different seeds are therefore different programs of the same size
// and structure, and their compile and run costs stay comparable. The
// run-time branch decisions come from the seed as well. The generator
// tracks the mapping of every object while it writes: at each join (the
// end of an if, the back edge of a loop) it emits the remappings that
// bring every path to the same mapping, so each array reference sees
// exactly one placement (the paper's restriction 1) and the routine
// compiles without diagnostics.
#include <array>
#include <random>
#include <sstream>

#include "bench.hpp"

namespace hpfbench {

namespace {

constexpr std::array<const char*, 4> kFormats1 = {"block", "cyclic",
                                                  "cyclic(2)", "cyclic(3)"};
constexpr std::array<const char*, 4> kFormats2 = {
    "block, *", "*, block", "cyclic, *", "*, cyclic(2)"};

/// Mapping of every remappable object. Templates and directly distributed
/// arrays carry a format index; aligned arrays carry their alignment.
struct MapState {
  int t = 0;    ///< template T (1-D) format
  int t2 = 0;   ///< template T2 (2-D) format
  int c = 1;    ///< array C (1-D, direct) format
  int f = 0;    ///< array F (2-D, direct) format
  bool a_rev = false;  ///< A aligned reversed onto T
  bool b_rev = true;   ///< B aligned reversed onto T
  bool d_trans = false;  ///< D aligned transposed onto T2
  bool e_trans = true;   ///< E aligned transposed onto T2
  friend bool operator==(const MapState&, const MapState&) = default;
};

class RoutineWriter {
 public:
  // Extents follow the routine's index, not the seed, and every array of
  // a routine holds the same number of elements (n = m * m), so which
  // array a seed picks does not change how much data a copy moves.
  RoutineWriter(unsigned seed, int index)
      : shape_rng_(1000u + static_cast<unsigned>(index)),
        rng_(seed * 7919u + static_cast<unsigned>(index)),
        n_((8 + 2 * (index % 3)) * (8 + 2 * (index % 3))),
        m_(8 + 2 * (index % 3)),
        name_("corpus" + std::to_string(index)) {}

  /// Writes the routine; the body grows statement by statement until the
  /// routine reaches `target_lines` lines, so every routine of a corpus
  /// position has nearly the same size whatever the seed.
  CorpusRoutine write(int target_lines) {
    header();
    line("begin");
    ++indent_;
    line("def(A, B, C, D, E, F)");
    while (lines_ + 3 < target_lines) block(1, 0);
    line("use(A, B, C, D, E, F)");
    --indent_;
    line("end");
    return {name_, out_.str(), lines_};
  }

 private:
  /// Draws from the operand stream.
  std::size_t pick(std::size_t n) { return rng_() % n; }
  bool chance(int percent) { return static_cast<int>(pick(100)) < percent; }
  /// Draws from the shape stream.
  std::size_t shape(std::size_t n) { return shape_rng_() % n; }
  bool shape_chance(int percent) {
    return static_cast<int>(shape(100)) < percent;
  }

  void line(const std::string& text) {
    for (int i = 0; i < indent_; ++i) out_ << "  ";
    out_ << text << '\n';
    ++lines_;
  }

  void header() {
    const std::string n = std::to_string(n_);
    const std::string m = std::to_string(m_);
    line("routine " + name_);
    line("processors P(4)");
    line("template T(" + n + ")");
    line("template T2(" + m + ", " + m + ")");
    line("distribute T(" + std::string(kFormats1[state_.t]) + ") onto P");
    line("distribute T2(" + std::string(kFormats2[state_.t2]) + ") onto P");
    for (const char* a : {"A", "B", "C"}) line("real " + std::string(a) +
                                               "(" + n + ")");
    for (const char* a : {"D", "E", "F"})
      line("real " + std::string(a) + "(" + m + ", " + m + ")");
    line(align_1d("align", "A", state_.a_rev));
    line(align_1d("align", "B", state_.b_rev));
    line("distribute C(" + std::string(kFormats1[state_.c]) + ") onto P");
    line(align_2d("align", "D", state_.d_trans));
    line(align_2d("align", "E", state_.e_trans));
    line("distribute F(" + std::string(kFormats2[state_.f]) + ") onto P");
    line("interface foo(X(" + n +
         ") intent(inout) distribute(cyclic(2)) onto P)");
    line("interface peek(X(" + n + ") intent(in) distribute(block) onto P)");
    line("interface bar(Y(" + m + ", " + m +
         ") intent(inout) distribute(*, block) onto P)");
  }

  std::string align_1d(const char* verb, const char* array, bool rev) const {
    return std::string(verb) + " " + array + "(i) with T(" +
           (rev ? "-1*i+" + std::to_string(n_ - 1) : std::string("i")) + ")";
  }
  static std::string align_2d(const char* verb, const char* array,
                              bool trans) {
    return std::string(verb) + " " + array + "(i, j) with T2(" +
           (trans ? "j, i" : "i, j") + ")";
  }

  static int other(std::mt19937& rng, int current, int count) {
    return (current + 1 + static_cast<int>(rng() % (count - 1))) % count;
  }

  // One remapping of a random object to a different mapping. Inside loops
  // only redistributions are drawn: O2's loop-invariant motion mishandles
  // a realign whose template is redistributed in the same loop (see the
  // README), and the corpus keeps to programs every level compiles.
  void remap() {
    switch (pick(loops_ > 0 ? 5 : 8)) {
      case 0: case 1: set_t(other(rng_, state_.t, 4)); break;
      case 2: set_t2(other(rng_, state_.t2, 4)); break;
      case 3: set_c(other(rng_, state_.c, 4)); break;
      case 4: set_f(other(rng_, state_.f, 4)); break;
      case 5: set_a(!state_.a_rev); break;
      case 6: set_b(!state_.b_rev); break;
      default:
        if (chance(50)) set_d(!state_.d_trans);
        else set_e(!state_.e_trans);
        break;
    }
  }

  void set_t(int v) {
    state_.t = v;
    line("redistribute T(" + std::string(kFormats1[v]) + ")");
  }
  void set_t2(int v) {
    state_.t2 = v;
    line("redistribute T2(" + std::string(kFormats2[v]) + ")");
  }
  void set_c(int v) {
    state_.c = v;
    line("redistribute C(" + std::string(kFormats1[v]) + ")");
  }
  void set_f(int v) {
    state_.f = v;
    line("redistribute F(" + std::string(kFormats2[v]) + ")");
  }
  void set_a(bool rev) {
    state_.a_rev = rev;
    line(align_1d("realign", "A", rev));
  }
  void set_b(bool rev) {
    state_.b_rev = rev;
    line(align_1d("realign", "B", rev));
  }
  void set_d(bool trans) {
    state_.d_trans = trans;
    line(align_2d("realign", "D", trans));
  }
  void set_e(bool trans) {
    state_.e_trans = trans;
    line(align_2d("realign", "E", trans));
  }

  /// Emits the remappings that bring every object back to `target`.
  void restore(const MapState& target) {
    if (state_.t != target.t) set_t(target.t);
    if (state_.t2 != target.t2) set_t2(target.t2);
    if (state_.c != target.c) set_c(target.c);
    if (state_.f != target.f) set_f(target.f);
    if (state_.a_rev != target.a_rev) set_a(target.a_rev);
    if (state_.b_rev != target.b_rev) set_b(target.b_rev);
    if (state_.d_trans != target.d_trans) set_d(target.d_trans);
    if (state_.e_trans != target.e_trans) set_e(target.e_trans);
  }

  std::string arrays(int count) {
    static constexpr std::array<const char*, 6> kNames = {"A", "B", "C",
                                                          "D", "E", "F"};
    std::array<bool, 6> taken{};
    std::string list;
    for (int i = 0; i < count; ++i) {
      std::size_t k = pick(6);
      while (taken[k]) k = (k + 1) % 6;
      taken[k] = true;
      if (!list.empty()) list += ", ";
      list += kNames[k];
    }
    return list;
  }

  void block(int budget, int depth) {
    while (budget > 0) {
      --budget;
      const int kind = static_cast<int>(shape(100));
      if (kind < 20) {
        line("use(" + arrays(1 + static_cast<int>(shape(3))) + ")");
      } else if (kind < 32) {
        line("def(" + arrays(1 + static_cast<int>(shape(2))) + ")");
      } else if (kind < 38) {
        line("ref read(" + arrays(1 + static_cast<int>(shape(2))) +
             ") write(" + arrays(1) + ")");
      } else if (kind < 42) {
        line("full(" + arrays(1) + ")");
      } else if (kind < 44) {
        line("kill(" + arrays(1) + ")");
      } else if (kind < 62) {
        remap();
      } else if (kind < 70) {
        static constexpr std::array<const char*, 3> kOneDim = {"A", "B", "C"};
        static constexpr std::array<const char*, 3> kTwoDim = {"D", "E", "F"};
        switch (pick(3)) {
          case 0: line("call foo(" + std::string(kOneDim[pick(3)]) + ")"); break;
          case 1: line("call peek(" + std::string(kOneDim[pick(3)]) + ")"); break;
          default: line("call bar(" + std::string(kTwoDim[pick(3)]) + ")"); break;
        }
      } else if (kind < 85 && depth < 3) {
        const int body = 2 + static_cast<int>(shape(10));
        budget -= body;
        if_stmt(body, depth);
      } else if (kind < 95 && depth < 2) {
        const int body = 2 + static_cast<int>(shape(8));
        budget -= body;
        loop_stmt(body, depth);
      } else {
        line("use(" + arrays(1) + ")");
      }
    }
  }

  void if_stmt(int budget, int depth) {
    const MapState entry = state_;
    line(shape_chance(50) ? "if read(" + arrays(1) + ")" : std::string("if"));
    ++indent_;
    const int then_budget = budget / 2 + 1;
    block(then_budget, depth + 1);
    --indent_;
    if (shape_chance(60)) {
      const MapState then_exit = state_;
      state_ = entry;
      line("else");
      ++indent_;
      block(budget - then_budget + 1, depth + 1);
      restore(then_exit);
      --indent_;
    } else {
      ++indent_;
      restore(entry);
      --indent_;
    }
    line("endif");
  }

  void loop_stmt(int budget, int depth) {
    const MapState entry = state_;
    const int trips = 1 + static_cast<int>(shape(2));
    line("loop " + std::to_string(trips) +
         (shape_chance(50) ? " nonzero" : ""));
    ++indent_;
    ++loops_;
    block(budget, depth + 1);
    restore(entry);
    --loops_;
    --indent_;
    line("endloop");
  }

  std::mt19937 shape_rng_;
  std::mt19937 rng_;
  int n_ = 64;
  int m_ = 16;
  std::string name_;
  MapState state_;
  std::ostringstream out_;
  int lines_ = 0;
  int indent_ = 0;
  int loops_ = 0;  ///< enclosing loops of the statement being written
};

}  // namespace

std::vector<CorpusRoutine> generate_corpus(unsigned seed, int routines,
                                           int lines_per_routine) {
  std::vector<CorpusRoutine> corpus;
  corpus.reserve(static_cast<std::size_t>(routines));
  for (int r = 0; r < routines; ++r)
    corpus.push_back(RoutineWriter(seed, r).write(lines_per_routine));
  return corpus;
}

}  // namespace hpfbench

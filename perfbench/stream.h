// Seeded op stream of the session benchmark.
//
// The stream owns its random source (splitmix64 plus its own Zipf table), so
// a seed yields the same op types and parameters on every commit; only the
// pools it draws from (vocabulary, students, comments, ...) come from the
// generated corpus. Parameters that depend on a previous answer — which
// cloud term a refine clicks, which hit a course page opens — are carried as
// ranks and resolved by the driver against the program's own output.
#ifndef PERFBENCH_STREAM_H_
#define PERFBENCH_STREAM_H_

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <iterator>
#include <set>
#include <string>
#include <tuple>
#include <utility>
#include <vector>

namespace perfbench {

class Random {
 public:
  explicit Random(uint64_t seed) : state_(seed) {}

  uint64_t Next() {  // splitmix64
    uint64_t z = (state_ += 0x9e3779b97f4a7c15ULL);
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
    return z ^ (z >> 31);
  }
  double Uniform() { return static_cast<double>(Next() >> 11) * 0x1.0p-53; }
  size_t Below(size_t n) { return n == 0 ? 0 : Next() % n; }

 private:
  uint64_t state_;
};

/// Ranks 0..n-1 with P(k) proportional to 1/(k+1)^theta.
class Zipf {
 public:
  Zipf(size_t n, double theta) : cdf_(n) {
    double acc = 0.0;
    for (size_t k = 0; k < n; ++k) {
      acc += 1.0 / std::pow(static_cast<double>(k + 1), theta);
      cdf_[k] = acc;
    }
    for (double& c : cdf_) c /= acc;
  }
  size_t Sample(Random& rng) const {
    double u = rng.Uniform();
    size_t lo = 0, hi = cdf_.size() - 1;
    while (lo < hi) {
      size_t mid = (lo + hi) / 2;
      if (cdf_[mid] < u) lo = mid + 1; else hi = mid;
    }
    return lo;
  }

 private:
  std::vector<double> cdf_;
};

enum class Workload { kBrowse, kRecommend, kWriteMix };

enum class OpKind : uint8_t {
  kBrowse,      ///< Search + cloud (Fig. 3)
  kRefine,      ///< Refine by a cloud term + cloud (Fig. 4)
  kDescriptor,  ///< course page for one hit
  kStrategy,    ///< one FlexRecs strategy call (Fig. 5)
  kRate,        ///< rating upsert
  kComment,
  kEnroll,      ///< course taken, with a grade report
  kVote,        ///< comment vote
};
inline constexpr int kNumOpKinds = 8;
inline constexpr const char* kOpKindNames[kNumOpKinds] = {
    "browse", "refine", "descriptor", "strategy",
    "rate",   "comment", "enroll",    "vote"};

/// The five shipped strategies the recommend sessions call.
inline constexpr int kNumStrategies = 5;
inline constexpr const char* kStrategyNames[kNumStrategies] = {
    "related_courses", "user_cf", "weighted_user_cf", "grade_cf",
    "major_popular"};

struct Op {
  OpKind kind = OpKind::kBrowse;
  int strategy = -1;  ///< kStrategy: index into kStrategyNames
  /// Kind-specific integers: a student/viewer/voter, b course/comment,
  /// c year/day/rank, d quarter.
  int64_t a = 0, b = 0, c = 0, d = 0;
  double x = 0.0;     ///< rating score or grade
  std::string text;   ///< query, course title or comment text
};

/// What the stream draws from, read from the generated corpus at set-up.
struct Pools {
  std::vector<std::string> vocabulary;  ///< query terms, [0] = "american"
  std::vector<int64_t> students;
  std::vector<int64_t> rated_students;  ///< students with >= 3 ratings
  std::vector<int64_t> majors;          ///< departments some student majors in
  std::vector<std::pair<std::string, int64_t>> title_years;  ///< offerings
  std::vector<std::pair<int64_t, int64_t>> rated_pairs;  ///< (student, course)
  std::vector<int64_t> courses;
  std::vector<int64_t> comment_courses;  ///< the "american" hit set
  std::vector<std::pair<int64_t, int64_t>> comments;  ///< (comment, author)
  std::set<std::pair<int64_t, int64_t>> votes;        ///< (comment, voter)
};

/// Write kinds are drawn in proportion to the user-contributed rows of the
/// paper-scale corpus (paper section 2, EXPERIMENTS.md E1): 50,300 ratings,
/// 134,000 comments and 211,673 self-reported enrollments with grades.
/// Chosen for this benchmark, with no source: votes, which neither the paper
/// nor the corpus counts, take 5% of writes, and ratings are split evenly
/// between upserts of already-rated pairs and new pairs.
inline constexpr double kVoteShare = 0.05;
inline constexpr double kContributedRows[] = {50300 / 2.0, 50300 / 2.0,
                                              134000, 211673};
/// write_mix issues a write at every kWriteEvery-th op (chosen, no source).
inline constexpr uint64_t kWriteEvery = 5;
/// Query terms are Zipf-ranked by document frequency (theta chosen, no
/// source).
inline constexpr double kQueryZipfTheta = 1.0;
/// A course page opens one of the top kPageRanks hits of the current set.
inline constexpr int64_t kPageRanks = 10;
/// Grade reports use years after the generated history, so their
/// (student, course, year, term) keys never collide with generated rows.
inline constexpr int64_t kFirstReportYear = 2010;

class OpStream {
 public:
  OpStream(Workload workload, uint64_t seed, const Pools& pools)
      : workload_(workload), pools_(pools), rng_(seed ^ 0x5e55105ULL),
        query_zipf_(pools.vocabulary.size(), kQueryZipfTheta) {}

  Op Next() {
    uint64_t index = produced_++;
    if (workload_ == Workload::kWriteMix && index % kWriteEvery ==
                                                kWriteEvery - 1) {
      return NextWrite();
    }
    if (pending_refines_ > 0) {
      --pending_refines_;
      Op op;
      op.kind = OpKind::kRefine;
      op.c = static_cast<int64_t>(rng_.Below(10));
      return op;
    }
    if (pending_descriptor_) {
      pending_descriptor_ = false;
      Op op;
      op.kind = OpKind::kDescriptor;
      op.a = Pick(pools_.students);
      op.c = static_cast<int64_t>(rng_.Below(kPageRanks));
      return op;
    }
    // write_mix alternates browse sessions and recommend requests, so the
    // mix (and with it the pooled p90, which falls inside the strategy
    // latencies) does not move with the seed.
    bool recommend =
        workload_ == Workload::kRecommend ||
        (workload_ == Workload::kWriteMix && sessions_++ % 2 == 1);
    if (recommend) return NextStrategy();
    Op op;
    op.kind = OpKind::kBrowse;
    op.text = pools_.vocabulary[query_zipf_.Sample(rng_)];
    pending_refines_ = static_cast<int>(rng_.Below(3));
    pending_descriptor_ = true;
    return op;
  }

 private:
  template <typename T>
  const T& Pick(const std::vector<T>& v) { return v[rng_.Below(v.size())]; }

  Op NextStrategy() {
    Op op;
    op.kind = OpKind::kStrategy;
    op.strategy = static_cast<int>(strategies_++ % kNumStrategies);
    switch (op.strategy) {
      case 0: {
        const auto& [title, year] = Pick(pools_.title_years);
        op.text = title;
        op.c = year;
        break;
      }
      case 4:
        op.a = Pick(pools_.majors);
        break;
      default:
        op.a = Pick(pools_.rated_students);
        break;
    }
    return op;
  }

  Op NextWrite() {
    // kind: 0 upsert of a rated pair, 1 new rating, 2 comment, 3 grade
    // report, 4 comment vote.
    double rows = 0;
    for (double n : kContributedRows) rows += n;
    double u = rng_.Uniform();
    size_t kind = 0;
    if (u >= 1 - kVoteShare) {
      kind = std::size(kContributedRows);
    } else {
      double acc = (1 - kVoteShare) * kContributedRows[0] / rows;
      while (kind + 1 < std::size(kContributedRows) && u >= acc) {
        acc += (1 - kVoteShare) * kContributedRows[++kind] / rows;
      }
    }
    Op op;
    op.c = day_++;
    switch (kind) {
      case 0: {  // upsert of an existing rating
        op.kind = OpKind::kRate;
        std::tie(op.a, op.b) = Pick(pools_.rated_pairs);
        op.x = static_cast<double>(1 + rng_.Below(5));
        break;
      }
      case 1:  // new rating (an upsert if the pair happens to exist)
        op.kind = OpKind::kRate;
        op.a = Pick(pools_.students);
        op.b = Pick(pools_.courses);
        op.x = static_cast<double>(1 + rng_.Below(5));
        break;
      case 2: {
        op.kind = OpKind::kComment;
        op.a = Pick(pools_.students);
        op.b = Pick(pools_.comment_courses);
        size_t words = 4 + rng_.Below(6);
        size_t span = std::min<size_t>(pools_.vocabulary.size(), 500);
        for (size_t i = 0; i < words; ++i) {
          if (i > 0) op.text += ' ';
          op.text += pools_.vocabulary[rng_.Below(span)];
        }
        break;
      }
      case 3: {
        op.kind = OpKind::kEnroll;
        do {
          op.a = Pick(pools_.students);
          op.b = Pick(pools_.courses);
          op.c = kFirstReportYear + static_cast<int64_t>(rng_.Below(10));
          op.d = static_cast<int64_t>(rng_.Below(4));
        } while (!enrolled_.insert({op.a, op.b, op.c, op.d}).second);
        static constexpr double kGrades[] = {4.0, 3.7, 3.3, 3.0,
                                             2.7, 2.3, 2.0, 1.7};
        op.x = kGrades[rng_.Below(std::size(kGrades))];
        break;
      }
      default: {
        op.kind = OpKind::kVote;
        for (;;) {
          const auto& [comment, author] = Pick(pools_.comments);
          int64_t voter = Pick(pools_.students);
          if (voter == author || pools_.votes.count({comment, voter}) ||
              !voted_.insert({comment, voter}).second) {
            continue;
          }
          op.a = voter;
          op.b = comment;
          op.d = static_cast<int64_t>(rng_.Below(4) != 0);  // helpful
          break;
        }
        break;
      }
    }
    return op;
  }

  Workload workload_;
  const Pools& pools_;
  Random rng_;
  Zipf query_zipf_;
  uint64_t produced_ = 0;
  uint64_t strategies_ = 0;  ///< recommend requests cycle the strategies
  uint64_t sessions_ = 0;    ///< write_mix sessions opened
  int pending_refines_ = 0;
  bool pending_descriptor_ = false;
  int64_t day_ = 10000;
  std::set<std::vector<int64_t>> enrolled_;
  std::set<std::pair<int64_t, int64_t>> voted_;
};

/// FNV-1a over a canonical rendering of each op: equal digests mean equal
/// op types and parameters.
class StreamDigest {
 public:
  void Add(const Op& op) {
    Mix(static_cast<uint8_t>(op.kind));
    Mix(static_cast<uint8_t>(op.strategy + 1));
    for (int64_t v : {op.a, op.b, op.c, op.d}) MixBytes(&v, sizeof v);
    MixBytes(&op.x, sizeof op.x);
    MixBytes(op.text.data(), op.text.size());
    Mix(0xff);
  }
  uint64_t value() const { return h_; }

 private:
  void Mix(uint8_t byte) { h_ = (h_ ^ byte) * 0x100000001b3ULL; }
  void MixBytes(const void* p, size_t n) {
    const auto* bytes = static_cast<const uint8_t*>(p);
    for (size_t i = 0; i < n; ++i) Mix(bytes[i]);
  }
  uint64_t h_ = 0xcbf29ce484222325ULL;
};

}  // namespace perfbench

#endif  // PERFBENCH_STREAM_H_

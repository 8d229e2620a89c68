// Session benchmark driver for CourseRank.
//
// Loads the paper-scale corpus from the workload seed, then runs one named
// workload as a closed loop from a single client thread (the engine keeps
// its shipped shared pool) for a fixed wall time:
//
//   browse     search -> cloud -> 0-2 refines -> course page sessions
//   recommend  the five shipped FlexRecs strategies in fixed rotation
//   write_mix  both session kinds, alternating, with every 5th op a write
//              through a WAL with periodic group-commit Sync
//
// Outputs are checked (untimed, on a sample) and every end-to-end number is
// printed with its unit and sample count; the last stdout line is one JSON
// object. With --trace 1 the same loop alternates traced and untraced blocks
// of ops: spans around each call into a layer plus deltas of the program's
// MetricsRegistry counters and histogram sums give the per-layer numbers.
//
//   perfbench_driver --workload browse --seed 1 --seconds 10 --trace 0
//                    [--work-dir DIR]

#include <sys/resource.h>

#include <algorithm>
#include <array>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <map>
#include <memory>
#include <optional>
#include <regex>
#include <set>
#include <string>
#include <vector>

#include "common/thread_pool.h"
#include "core/data_cloud.h"
#include "core/flexrecs_engine.h"
#include "core/strategies.h"
#include "core/workflow_parser.h"
#include "gen/generator.h"
#include "obs/metrics.h"
#include "search/entity.h"
#include "search/naive_search.h"
#include "search/query_cache.h"
#include "social/site.h"
#include "spans.h"
#include "storage/wal.h"
#include "stream.h"

namespace perfbench {
namespace {

namespace cr = courserank;
using cr::Status;
using cr::query::ParamMap;
using cr::storage::Value;

/// Full set-ups per untraced run; setup_s is their median.
constexpr int kSetupRuns = 3;
/// write_mix fsyncs the WAL after every kSyncEvery-th write.
constexpr uint64_t kSyncEvery = 16;
/// Output checks run on every kSearchCheckEvery-th browse/refine op and every
/// kStrategyCheckEvery-th strategy op.
constexpr uint64_t kSearchCheckEvery = 16;
constexpr uint64_t kStrategyCheckEvery = 10;
/// The stream digest covers this many leading ops.
constexpr uint64_t kDigestOps = 20000;
/// Query vocabulary: the most frequent analyzed unigrams with at least
/// kMinQueryDf documents.
constexpr size_t kVocabularySize = 2000;
constexpr size_t kMinQueryDf = 5;
/// --trace 1 alternates blocks of this many traced and untraced ops.
constexpr uint64_t kTraceBlock = 16;

uint64_t NowNs() {
  return static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

double Seconds(uint64_t ns) { return static_cast<double>(ns) * 1e-9; }

[[noreturn]] void Die(const std::string& what) {
  std::fprintf(stderr, "perfbench: %s\n", what.c_str());
  std::exit(1);
}

void Check(const Status& s, const std::string& what) {
  if (!s.ok()) Die(what + ": " + s.ToString());
}

template <typename T>
T Take(cr::Result<T> r, const std::string& what) {
  Check(r.status(), what);
  return std::move(r).value();
}

// ---- arguments -------------------------------------------------------------

struct Args {
  Workload workload = Workload::kBrowse;
  std::string workload_name;
  uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  std::string work_dir = ".bench_build/perfbench-work";
};

Args ParseArgs(int argc, char** argv) {
  Args args;
  bool have_workload = false;
  for (int i = 1; i < argc; ++i) {
    std::string flag = argv[i];
    if (i + 1 >= argc) Die("missing value for " + flag);
    std::string value = argv[++i];
    if (flag == "--workload") {
      static const std::map<std::string, Workload> kWorkloads = {
          {"browse", Workload::kBrowse},
          {"recommend", Workload::kRecommend},
          {"write_mix", Workload::kWriteMix}};
      auto it = kWorkloads.find(value);
      if (it == kWorkloads.end()) Die("unknown workload " + value);
      args.workload = it->second;
      args.workload_name = value;
      have_workload = true;
    } else if (flag == "--seed") {
      args.seed = std::stoull(value);
    } else if (flag == "--seconds") {
      args.seconds = std::stod(value);
    } else if (flag == "--trace") {
      args.trace = value == "1";
    } else if (flag == "--work-dir") {
      args.work_dir = value;
    } else {
      Die("unknown flag " + flag);
    }
  }
  if (!have_workload) Die("--workload is required");
  if (!(args.seconds > 0)) Die("--seconds must be positive");
  return args;
}

// ---- the world -------------------------------------------------------------

struct World {
  std::unique_ptr<cr::gen::Generator> generator;
  std::unique_ptr<cr::social::CourseRankSite> site;
  std::unique_ptr<cr::search::CachingSearcher> searcher;
  std::unique_ptr<cr::cloud::CachingCloudBuilder> clouds;
  std::unique_ptr<cr::storage::WalWriter> wal;
  /// Per strategy: the parsed workflow (for the traced Compile + Execute)
  /// and the tables its DSL names (for the mirror-rebuild span).
  std::vector<cr::flexrecs::NodePtr> workflows;
  std::vector<std::vector<const cr::storage::Table*>> strategy_tables;

  ~World() {
    // The database keeps a raw pointer to the WAL.
    if (site != nullptr) site->db().AttachWal(nullptr);
  }
};

struct SetupTimes {
  uint64_t gen_ns = 0, index_ns = 0, wal_ns = 0, warmup_ns = 0;
  uint64_t total_ns() const { return gen_ns + index_ns + wal_ns + warmup_ns; }
};

std::string StrategyDsl(int strategy) {
  namespace s = cr::flexrecs::strategies;
  switch (strategy) {
    case 0: return s::RelatedCoursesDsl();
    case 1: return s::UserCfDsl();
    case 2: return s::WeightedUserCfDsl();
    case 3: return s::GradeCfDsl();
    default: return s::MajorPopularDsl();
  }
}

ParamMap StrategyParams(const Op& op) {
  switch (op.strategy) {
    case 0: return {{"title", Value(op.text)}, {"year", Value(op.c)}};
    case 4: return {{"major", Value(op.a)}};
    default: return {{"student", Value(op.a)}};
  }
}

/// Corpus generation, index build and (write_mix) WAL attach. The warm-up,
/// which needs the pools, is timed separately by the caller.
std::unique_ptr<World> BuildWorld(const Args& args, SetupTimes* times) {
  auto world = std::make_unique<World>();
  uint64_t t0 = NowNs();
  world->generator = std::make_unique<cr::gen::Generator>(
      cr::gen::GenConfig::PaperScale(args.seed));
  world->site = Take(world->generator->Generate(), "generate corpus");
  uint64_t t1 = NowNs();
  Check(world->site->BuildSearchIndex(), "build search index");
  world->searcher =
      Take(world->site->MakeCachingSearcher(), "make caching searcher");
  world->clouds = std::make_unique<cr::cloud::CachingCloudBuilder>(
      &world->site->index());
  uint64_t t2 = NowNs();
  if (args.workload == Workload::kWriteMix) {
    std::string path = args.work_dir + "/wal.log";
    std::filesystem::remove(path);
    world->wal = Take(cr::storage::WalWriter::Open(path), "open WAL");
    world->site->db().AttachWal(world->wal.get());
  }
  uint64_t t3 = NowNs();
  times->gen_ns = t1 - t0;
  times->index_ns = t2 - t1;
  times->wal_ns = t3 - t2;

  const auto& db = world->site->db();
  for (int s = 0; s < kNumStrategies; ++s) {
    std::string dsl = StrategyDsl(s);
    world->workflows.push_back(
        Take(cr::flexrecs::ParseWorkflow(dsl), "parse strategy"));
    std::vector<const cr::storage::Table*> tables;
    for (const std::string& name : db.TableNames()) {
      if (std::regex_search(dsl, std::regex("\\b" + name + "\\b"))) {
        tables.push_back(db.FindTable(name));
      }
    }
    world->strategy_tables.push_back(std::move(tables));
  }
  return world;
}

/// Reads the stream's pools from the generated corpus. Deterministic in the
/// corpus: scan orders and sorted sets only.
Pools BuildPools(World& world) {
  Pools pools;
  const auto& site = *world.site;
  const auto& db = site.db();
  const auto& index = site.index();

  std::vector<std::pair<size_t, std::string>> ranked;
  for (cr::search::TermId t = 0; t < index.num_terms(); ++t) {
    const std::string& term = index.TermString(t);
    if (term.find(' ') != std::string::npos) continue;
    size_t df = index.DocFrequency(t);
    if (df < kMinQueryDf) continue;
    auto analyzed = index.analyzer().AnalyzeQuery(term);
    if (analyzed.size() != 1 || analyzed[0] != term) continue;
    ranked.emplace_back(df, term);
  }
  std::sort(ranked.begin(), ranked.end(), [](const auto& x, const auto& y) {
    return x.first != y.first ? x.first > y.first : x.second < y.second;
  });
  pools.vocabulary.push_back("american");
  for (const auto& [df, term] : ranked) {
    if (pools.vocabulary.size() >= kVocabularySize) break;
    if (term != "american") pools.vocabulary.push_back(term);
  }

  const auto& artifacts = world.generator->artifacts();
  pools.students = artifacts.students;
  pools.courses = artifacts.courses;

  auto column = [](const cr::storage::Table* t, const char* name) {
    return Take(t->schema().ColumnIndex(name), std::string("column ") + name);
  };
  const auto* ratings = db.FindTable("Ratings");
  std::map<int64_t, size_t> rating_counts;
  ratings->Scan([&](cr::storage::RowId, const cr::storage::Row& row) {
    pools.rated_pairs.emplace_back(row[0].AsInt(), row[1].AsInt());
    ++rating_counts[row[0].AsInt()];
  });
  for (const auto& [student, n] : rating_counts) {
    if (n >= 3) pools.rated_students.push_back(student);
  }

  const auto* students = db.FindTable("Students");
  size_t major_ci = column(students, "Major");
  std::set<int64_t> majors;
  students->Scan([&](cr::storage::RowId, const cr::storage::Row& row) {
    if (!row[major_ci].is_null()) majors.insert(row[major_ci].AsInt());
  });
  pools.majors.assign(majors.begin(), majors.end());

  const auto* courses = db.FindTable("Courses");
  const auto* offerings = db.FindTable("Offerings");
  size_t title_ci = column(courses, "Title");
  size_t off_course_ci = column(offerings, "CourseID");
  size_t off_year_ci = column(offerings, "Year");
  std::set<std::pair<std::string, int64_t>> title_years;
  offerings->Scan([&](cr::storage::RowId, const cr::storage::Row& row) {
    auto rid = courses->FindByPrimaryKey({row[off_course_ci]});
    if (!rid.ok()) return;
    title_years.emplace((*courses->Get(*rid))[title_ci].AsString(),
                        row[off_year_ci].AsInt());
  });
  pools.title_years.assign(title_years.begin(), title_years.end());

  const auto* comments = db.FindTable("Comments");
  size_t comment_ci = column(comments, "CommentID");
  size_t author_ci = column(comments, "SuID");
  comments->Scan([&](cr::storage::RowId, const cr::storage::Row& row) {
    pools.comments.emplace_back(row[comment_ci].AsInt(),
                                row[author_ci].AsInt());
  });
  const auto* votes = db.FindTable("CommentVotes");
  votes->Scan([&](cr::storage::RowId, const cr::storage::Row& row) {
    pools.votes.emplace(row[0].AsInt(), row[1].AsInt());
  });

  cr::search::Searcher searcher(&index);
  auto american = Take(searcher.Search("american"), "search american");
  for (const auto& hit : american.hits) {
    pools.comment_courses.push_back(index.doc(hit.doc).key.AsInt());
  }
  std::sort(pools.comment_courses.begin(), pools.comment_courses.end());

  if (pools.vocabulary.size() < 100 || pools.rated_students.empty() ||
      pools.majors.empty() || pools.title_years.empty() ||
      pools.comments.empty() || pools.comment_courses.empty()) {
    Die("corpus too small for the benchmark pools");
  }
  return pools;
}

/// The last part of set-up: runs every strategy three times (the first runs
/// are slower: columnar mirrors, pool threads, allocator), fills the search
/// and cloud caches with the hottest queries and opens one course page.
void WarmUp(World& world, const Pools& pools) {
  auto& engine = world.site->flexrecs();
  for (int s = 0; s < kNumStrategies; ++s) {
    Op op;
    op.kind = OpKind::kStrategy;
    op.strategy = s;
    op.text = pools.title_years[0].first;
    op.c = pools.title_years[0].second;
    op.a = s == 4 ? pools.majors[0] : pools.rated_students[0];
    for (int rep = 0; rep < 3; ++rep) {
      Take(engine.RunStrategy(kStrategyNames[s], StrategyParams(op)),
           "warm-up strategy");
    }
  }
  for (size_t i = 0; i < 64 && i < pools.vocabulary.size(); ++i) {
    auto rs = Take(world.searcher->Search(pools.vocabulary[i]),
                   "warm-up search");
    world.clouds->Build(*rs);
  }
  Take(world.site->GetCourseDescriptor(pools.students[0],
                                       pools.comment_courses[0]),
       "warm-up course page");
}

// ---- output checks ---------------------------------------------------------

/// Cached results must equal what the uncached Searcher and CloudBuilder
/// compute at the same index epoch.
bool SameSearchResult(World& world, const cr::search::ResultSet& cached,
                      const cr::cloud::DataCloud& cached_cloud) {
  const auto& index = world.site->index();
  if (cached.epoch != index.epoch()) return false;
  auto fresh = world.searcher->searcher().SearchTerms(cached.terms);
  if (!fresh.ok() || fresh->hits.size() != cached.hits.size()) return false;
  std::map<cr::search::DocId, double> scores;
  for (const auto& h : fresh->hits) scores[h.doc] = h.score;
  for (const auto& h : cached.hits) {
    auto it = scores.find(h.doc);
    if (it == scores.end() ||
        std::fabs(it->second - h.score) > 1e-9 * std::fabs(h.score)) {
      return false;
    }
  }
  cr::cloud::DataCloud cloud = world.clouds->builder().Build(cached);
  if (cloud.terms.size() != cached_cloud.terms.size()) return false;
  for (size_t i = 0; i < cloud.terms.size(); ++i) {
    const auto& a = cloud.terms[i];
    const auto& b = cached_cloud.terms[i];
    if (a.term != b.term || a.doc_count != b.doc_count ||
        a.total_tf != b.total_tf ||
        std::fabs(a.score - b.score) > 1e-9 * std::fabs(a.score)) {
      return false;
    }
  }
  return true;
}

/// Byte rendering of a relation: column names, then every value's type tag
/// and exact payload (doubles by bit pattern).
std::string Bytes(const cr::query::Relation& rel) {
  std::string out;
  for (size_t c = 0; c < rel.schema.num_columns(); ++c) {
    out += rel.schema.column(c).name;
    out += '\0';
  }
  for (const auto& row : rel.rows) {
    for (const Value& v : row) {
      out += static_cast<char>(v.type());
      switch (v.type()) {
        case cr::storage::ValueType::kNull: break;
        case cr::storage::ValueType::kBool:
          out += v.AsBool() ? '1' : '0';
          break;
        case cr::storage::ValueType::kInt: {
          int64_t i = v.AsInt();
          out.append(reinterpret_cast<const char*>(&i), sizeof i);
          break;
        }
        case cr::storage::ValueType::kDouble: {
          double d = v.AsDouble();
          uint64_t bits;
          std::memcpy(&bits, &d, sizeof bits);
          out.append(reinterpret_cast<const char*>(&bits), sizeof bits);
          break;
        }
        default: out += v.ToString(); out += '\0'; break;
      }
    }
  }
  return out;
}

/// A strategy result must match a re-run with serial ExecOptions byte for
/// byte.
bool SameAsSerial(World& world, const Op& op,
                  const cr::query::Relation& result) {
  auto& engine = world.site->flexrecs();
  cr::query::ExecOptions shipped = engine.exec_options();
  cr::query::ExecOptions serial = shipped;
  serial.parallel = false;
  engine.set_exec_options(serial);
  auto again = engine.RunStrategy(kStrategyNames[op.strategy],
                                  StrategyParams(op));
  engine.set_exec_options(shipped);
  return again.ok() && Bytes(*again) == Bytes(result);
}

/// At set-up: the indexed "american" hit set equals the naive full-scan
/// containment set.
bool AmericanMatchesNaive(World& world) {
  const auto& index = world.site->index();
  auto indexed = cr::search::Searcher(&index).Search("american");
  cr::search::NaiveSearcher naive(&world.site->db(),
                                  cr::search::MakeCourseEntity());
  auto scanned = naive.Search("american");
  if (!indexed.ok() || !scanned.ok()) return false;
  std::set<int64_t> a, b;
  for (const auto& h : indexed->hits) a.insert(index.doc(h.doc).key.AsInt());
  for (const auto& h : *scanned) b.insert(h.key.AsInt());
  return !a.empty() && a == b;
}

// ---- tracing ---------------------------------------------------------------

/// Registry values read at span boundaries: counters, then histogram sums.
enum Probe : size_t {
  kPostings, kSearchHits, kSearchMisses, kSearchStale, kCloudHits,
  kCloudMisses, kCloudTermsTouched, kCloudBuilds, kHashSteps, kHashProbes,
  kFusionBailouts, kRowsScanned, kWalBytes, kWalAppends, kWalFsyncs,
  kFanoutParallel, kFanoutSkippedSmall, kFanoutSkippedPool, kWorkerIdle,
  kAnalysisNs, kSqlStepNs, kPhysicalStepNs, kValuesStepNs, kScanNs,
  kExtendNs, kRecommendNs, kAggregateNs, kFilterNs, kProjectNs, kTopkNs,
  kSqlParseNs, kWalAppendNs, kWalFsyncNs, kPoolTaskNs, kNumProbes
};
constexpr size_t kFirstHistogram = kAnalysisNs;
constexpr const char* kProbeNames[kNumProbes] = {
    "cr_search_postings_advanced_total", "cr_search_result_cache_hits_total",
    "cr_search_result_cache_misses_total",
    "cr_search_result_cache_stale_drops_total", "cr_cloud_cache_hits_total",
    "cr_cloud_cache_misses_total", "cr_cloud_terms_touched_total",
    "cr_cloud_builds_total", "cr_exec_hash_steps_total",
    "cr_exec_hash_probes_total", "cr_exec_fusion_bailouts_total",
    "cr_storage_rows_scanned_total", "cr_wal_append_bytes_total",
    "cr_wal_appends_total", "cr_wal_fsyncs_total",
    "cr_exec_fanout_parallel_total", "cr_exec_fanout_skipped_small_total",
    "cr_exec_fanout_skipped_pool_total", "cr_pool_worker_idle_total",
    "cr_analysis_ns", "cr_flexrecs_sql_step_ns", "cr_flexrecs_physical_step_ns",
    "cr_flexrecs_values_step_ns", "cr_exec_scan_ns", "cr_exec_extend_ns",
    "cr_exec_recommend_ns", "cr_exec_aggregate_ns", "cr_exec_filter_ns",
    "cr_exec_project_ns", "cr_exec_topk_ns", "cr_sql_parse_ns",
    "cr_wal_append_ns", "cr_wal_fsync_ns", "cr_pool_task_ns"};

/// Span names. An op's root span is named after its kind ("op.<kind>").
enum SpanName : uint32_t {
  kSpanSearchQuery = kNumOpKinds, kSpanSearchRefine, kSpanCloudBuild,
  kSpanDescriptor, kSpanMirror, kSpanCompile, kSpanExecute, kSpanWriteRate,
  kSpanWriteComment, kSpanWriteEnroll, kSpanWriteVote,
  kSpanWalSync, kNumSpanNames
};

std::vector<std::string> SpanNames() {
  std::vector<std::string> names;
  for (const char* kind : kOpKindNames) {
    names.push_back(std::string("op.") + kind);
  }
  for (const char* n : {"search.query", "search.refine", "cloud.build",
                        "social.descriptor", "storage.mirror",
                        "flexrecs.compile", "flexrecs.execute",
                        "social.write.rate", "social.write.comment",
                        "social.write.enroll", "social.write.vote",
                        "storage.wal_sync"}) {
    names.push_back(n);
  }
  return names;
}

using Snapshot = std::array<uint64_t, kNumProbes>;

class Tracer {
 public:
  Tracer() : log_(SpanNames()), deltas_(kNumSpanNames, Snapshot{}) {
    auto& reg = cr::obs::MetricsRegistry::Default();
    for (size_t i = 0; i < kNumProbes; ++i) {
      if (i < kFirstHistogram) {
        counters_[i] = reg.GetCounter(kProbeNames[i]);
      } else {
        histograms_[i] = reg.GetHistogram(kProbeNames[i]);
      }
    }
  }

  void set_op(uint64_t op) { op_ = op; }

  size_t Begin(uint32_t name) {
    open_.push_back(Read());
    return log_.Begin(name, op_, NowNs());
  }

  void End(size_t span, uint32_t name) {
    log_.End(span, NowNs());
    Snapshot after = Read();
    for (size_t i = 0; i < kNumProbes; ++i) {
      deltas_[name][i] += after[i] - open_.back()[i];
    }
    open_.pop_back();
  }

  const SpanLog& log() const { return log_; }
  /// Registry deltas summed over the spans of one name.
  const Snapshot& delta(uint32_t name) const { return deltas_[name]; }

 private:
  Snapshot Read() const {
    Snapshot s;
    for (size_t i = 0; i < kNumProbes; ++i) {
      s[i] = i < kFirstHistogram ? counters_[i]->value()
                                 : histograms_[i]->sum();
    }
    return s;
  }

  SpanLog log_;
  std::vector<Snapshot> deltas_;
  std::vector<Snapshot> open_;
  std::array<cr::obs::Counter*, kNumProbes> counters_{};
  std::array<cr::obs::Histogram*, kNumProbes> histograms_{};
  uint64_t op_ = 0;
};

/// Opens a span for its scope when tracing, else does nothing.
class Scope {
 public:
  Scope(Tracer* tracer, uint32_t name) : tracer_(tracer), name_(name) {
    if (tracer_ != nullptr) span_ = tracer_->Begin(name);
  }
  ~Scope() {
    if (tracer_ != nullptr) tracer_->End(span_, name_);
  }
  Scope(const Scope&) = delete;
  Scope& operator=(const Scope&) = delete;

 private:
  Tracer* tracer_;
  uint32_t name_;
  size_t span_ = 0;
};

uint32_t WriteSpan(OpKind kind) {
  return kSpanWriteRate + (static_cast<uint32_t>(kind) -
                           static_cast<uint32_t>(OpKind::kRate));
}

// ---- the timed loop --------------------------------------------------------

/// Latency class of an op: its kind, with strategies split by strategy.
constexpr size_t kNumClasses = kNumOpKinds + kNumStrategies;
size_t ClassOf(const Op& op) {
  return op.kind == OpKind::kStrategy ? kNumOpKinds + op.strategy
                                      : static_cast<size_t>(op.kind);
}

struct LoopStats {
  uint64_t attempted = 0;
  uint64_t failed_status = 0;
  uint64_t failed_checks = 0;
  uint64_t checks = 0;
  uint64_t timed_ns = 0;       ///< loop wall minus untimed checks
  uint64_t check_ns = 0;
  uint64_t traced_rows_out = 0;  ///< strategy result rows, traced ops
  /// Untraced op latencies (ns) per class.
  std::array<std::vector<uint64_t>, kNumClasses> latency;
  /// Traced op latency sums and counts per class (--trace 1 only).
  std::array<uint64_t, kNumClasses> traced_ns{}, traced_n{};
  std::string first_failure;
};

/// The client's view of its current session: the last result set and cloud
/// (refines click a cloud term, course pages open a hit).
struct SessionState {
  std::shared_ptr<const cr::search::ResultSet> results;
  std::shared_ptr<const cr::cloud::DataCloud> cloud;
};

class Runner {
 public:
  explicit Runner(World& world) : world_(world) {}

  /// Runs one op; returns false when it could not be issued (a refine with
  /// no cloud term, a course page with no hit). Timing excludes the checks.
  bool Run(const Op& op, Tracer* tracer, LoopStats* stats) {
    uint64_t check_ns = 0;
    uint64_t t0 = NowNs();
    Status status;
    std::optional<cr::query::Relation> strategy_result;
    {
      Scope root(tracer, static_cast<uint32_t>(op.kind));
      switch (op.kind) {
        case OpKind::kBrowse:
        case OpKind::kRefine: {
          if (op.kind == OpKind::kRefine &&
              (state_.cloud == nullptr || state_.cloud->terms.empty())) {
            return false;
          }
          cr::Result<std::shared_ptr<const cr::search::ResultSet>> rs =
              std::shared_ptr<const cr::search::ResultSet>();
          if (op.kind == OpKind::kBrowse) {
            Scope s(tracer, kSpanSearchQuery);
            rs = world_.searcher->Search(op.text);
          } else {
            const auto& terms = state_.cloud->terms;
            const std::string& term = terms[op.c % terms.size()].display;
            Scope s(tracer, kSpanSearchRefine);
            rs = world_.searcher->Refine(*state_.results, term);
          }
          status = rs.status();
          if (!status.ok()) break;
          {
            Scope s(tracer, kSpanCloudBuild);
            state_.cloud = world_.clouds->Build(**rs);
          }
          state_.results = *rs;
          break;
        }
        case OpKind::kDescriptor: {
          if (state_.results == nullptr || state_.results->hits.empty()) {
            return false;
          }
          const auto& hits = state_.results->hits;
          size_t rank = static_cast<size_t>(op.c) % hits.size();
          int64_t course =
              world_.site->index().doc(hits[rank].doc).key.AsInt();
          Scope s(tracer, kSpanDescriptor);
          status = world_.site->GetCourseDescriptor(op.a, course).status();
          break;
        }
        case OpKind::kStrategy: {
          auto& engine = world_.site->flexrecs();
          ParamMap params = StrategyParams(op);
          cr::Result<cr::query::Relation> rel = cr::query::Relation();
          if (tracer == nullptr) {
            rel = engine.RunStrategy(kStrategyNames[op.strategy], params);
          } else {
            {
              Scope s(tracer, kSpanMirror);
              for (const auto* table : world_.strategy_tables[op.strategy]) {
                table->columnar();
              }
            }
            cr::Result<cr::flexrecs::CompiledWorkflow> compiled =
                cr::flexrecs::CompiledWorkflow();
            {
              Scope s(tracer, kSpanCompile);
              compiled = engine.Compile(*world_.workflows[op.strategy]);
            }
            if (!compiled.ok()) {
              rel = compiled.status();
            } else {
              Scope s(tracer, kSpanExecute);
              rel = engine.Execute(*compiled, params);
            }
          }
          status = rel.status();
          if (status.ok()) strategy_result = std::move(rel).value();
          break;
        }
        default:
          status = Write(op, tracer);
          break;
      }
    }
    uint64_t t1 = NowNs();

    if (status.ok() && tracer == nullptr) {
      // Untimed output checks on a sample.
      uint64_t c0 = NowNs();
      bool checked = false, good = true;
      if (op.kind == OpKind::kBrowse || op.kind == OpKind::kRefine) {
        if (search_ops_++ % kSearchCheckEvery == 0) {
          checked = true;
          good = SameSearchResult(world_, *state_.results, *state_.cloud);
        }
      } else if (op.kind == OpKind::kStrategy) {
        if (strategy_ops_++ % kStrategyCheckEvery == 0) {
          checked = true;
          good = SameAsSerial(world_, op, *strategy_result);
        }
      }
      if (checked) {
        ++stats->checks;
        if (!good) {
          ++stats->failed_checks;
          if (stats->first_failure.empty()) {
            stats->first_failure = std::string("output check failed on ") +
                                   kOpKindNames[static_cast<int>(op.kind)];
          }
        }
      }
      check_ns = NowNs() - c0;
      stats->check_ns += check_ns;
    }
    if (strategy_result.has_value() && tracer != nullptr) {
      stats->traced_rows_out += strategy_result->size();
    }

    ++stats->attempted;
    if (!status.ok()) {
      ++stats->failed_status;
      if (stats->first_failure.empty()) {
        stats->first_failure = std::string(kOpKindNames[static_cast<int>(
                                   op.kind)]) + ": " + status.ToString();
      }
    }
    size_t cls = ClassOf(op);
    if (tracer == nullptr) {
      stats->latency[cls].push_back(t1 - t0);
    } else {
      stats->traced_ns[cls] += t1 - t0;
      ++stats->traced_n[cls];
    }
    stats->timed_ns += NowNs() - t0 - check_ns;
    return true;
  }

 private:
  /// One student write through the site, plus the group-commit Sync when
  /// it is due.
  Status Write(const Op& op, Tracer* tracer) {
    auto& site = *world_.site;
    Status s;
    {
      Scope span(tracer, WriteSpan(op.kind));
      switch (op.kind) {
        case OpKind::kRate:
          s = site.RateCourse(op.a, op.b, op.x, static_cast<int>(op.c));
          break;
        case OpKind::kComment:
          s = site.AddComment(op.a, op.b, op.text, static_cast<int>(op.c))
                  .status();
          break;
        case OpKind::kEnroll:
          s = site.ReportCourseTaken(op.a, op.b, static_cast<int>(op.c),
                                     static_cast<cr::Quarter>(op.d), op.x);
          break;
        default:
          s = site.VoteComment(op.a, op.b, op.d != 0);
          break;
      }
    }
    if (!s.ok()) return s;
    if (++writes_ % kSyncEvery == 0 && world_.wal != nullptr) {
      Scope sync(tracer, kSpanWalSync);
      return world_.wal->Sync();
    }
    return Status::OK();
  }

  World& world_;
  SessionState state_;
  uint64_t writes_ = 0;
  uint64_t search_ops_ = 0;
  uint64_t strategy_ops_ = 0;
};

// ---- reporting -------------------------------------------------------------

double Percentile(std::vector<uint64_t> v, double q) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  double pos = q * static_cast<double>(v.size() - 1);
  size_t lo = static_cast<size_t>(pos);
  size_t hi = std::min(lo + 1, v.size() - 1);
  double frac = pos - static_cast<double>(lo);
  return static_cast<double>(v[lo]) * (1 - frac) +
         static_cast<double>(v[hi]) * frac;
}

double Median(std::vector<double> v) {
  std::sort(v.begin(), v.end());
  size_t n = v.size();
  return n % 2 ? v[n / 2] : (v[n / 2 - 1] + v[n / 2]) / 2;
}

double PeakRssMb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB on Linux
}

/// Where a metric goes: printed only, or also into the result JSON of an
/// untraced (end-to-end) or traced (per-layer) run. The JSON sets match
/// BENCHMARK.json's end_to_end and per_layer lists.
enum class Output { kPrinted, kEndToEnd, kLayer };

struct Metric {
  std::string name;
  double value;
  std::string unit;
  uint64_t samples;
  Output output;
};

class Report {
 public:
  void Add(const std::string& name, double value, const std::string& unit,
           uint64_t samples, Output output = Output::kPrinted) {
    metrics_.push_back({name, value, unit, samples, output});
  }

  void Print() const {
    for (const Metric& m : metrics_) {
      std::printf("  %-34s %16.6f %-6s n=%llu\n", m.name.c_str(), m.value,
                  m.unit.c_str(), static_cast<unsigned long long>(m.samples));
    }
  }

  /// The metrics of one output as a JSON object.
  std::string Json(Output output) const {
    std::string out;
    for (const Metric& m : metrics_) {
      if (m.output != output) continue;
      char buf[160];
      std::snprintf(buf, sizeof buf, "%s\"%s\": {\"value\": %.9g, "
                    "\"unit\": \"%s\"}", out.empty() ? "" : ", ",
                    m.name.c_str(), m.value, m.unit.c_str());
      out += buf;
    }
    return "{" + out + "}";
  }

 private:
  std::vector<Metric> metrics_;
};

/// Per-op-class latencies go to `per_class`: printed only for the op classes
/// the workload issues (untraced run), or into the per-layer JSON for every
/// class, 0 where none ran (traced run, from its untraced ops).
void AddOpMetrics(const LoopStats& stats, Output per_class, Report* report) {
  auto ms = [](double ns) { return ns / 1e6; };
  auto add_class = [&](const std::string& name, std::vector<uint64_t> v,
                       bool p90) {
    if (v.empty() && per_class == Output::kPrinted) return;
    report->Add(name + "_p50_ms", ms(Percentile(v, 0.5)), "ms", v.size(),
                per_class);
    if (p90) report->Add(name + "_p90_ms", ms(Percentile(v, 0.9)), "ms",
                         v.size(), per_class);
  };
  const auto& lat = stats.latency;
  add_class("browse", lat[static_cast<size_t>(OpKind::kBrowse)], true);
  add_class("refine", lat[static_cast<size_t>(OpKind::kRefine)], false);
  add_class("descriptor", lat[static_cast<size_t>(OpKind::kDescriptor)],
            false);
  std::vector<uint64_t> recommend, writes, all;
  for (int s = 0; s < kNumStrategies; ++s) {
    const auto& v = lat[kNumOpKinds + s];
    add_class(kStrategyNames[s], v, false);
    recommend.insert(recommend.end(), v.begin(), v.end());
  }
  if (!recommend.empty() || per_class != Output::kPrinted) {
    report->Add("recommend_p90_ms", ms(Percentile(recommend, 0.9)), "ms",
                recommend.size(), per_class);
  }
  for (OpKind k : {OpKind::kRate, OpKind::kComment, OpKind::kEnroll,
                   OpKind::kVote}) {
    const auto& v = lat[static_cast<size_t>(k)];
    add_class(std::string("write_") + kOpKindNames[static_cast<size_t>(k)], v,
              false);
    writes.insert(writes.end(), v.begin(), v.end());
  }
  add_class("write", writes, true);
  // Typical op latency: the geometric mean of the per-class medians, so
  // each op class counts once whatever its share of the stream.
  double log_sum = 0;
  size_t classes = 0;
  for (const auto& v : lat) {
    if (v.empty()) continue;
    log_sum += std::log(ms(Percentile(v, 0.5)));
    ++classes;
    all.insert(all.end(), v.begin(), v.end());
  }
  if (classes > 0) {
    report->Add("op_p50_gmean_ms", std::exp(log_sum / classes), "ms",
                all.size(), Output::kEndToEnd);
    report->Add("op_p90_ms", ms(Percentile(all, 0.9)), "ms", all.size(),
                Output::kEndToEnd);
  }
  uint64_t completed = stats.attempted - stats.failed_status;
  report->Add("ops_per_s", completed / Seconds(stats.timed_ns), "1/s",
              completed, Output::kEndToEnd);
  report->Add("error_rate",
              static_cast<double>(stats.failed_status + stats.failed_checks) /
                  static_cast<double>(std::max<uint64_t>(stats.attempted, 1)),
              "ratio", stats.attempted);
}

/// Per-layer metrics from the traced spans and registry deltas.
void AddLayerMetrics(const Tracer& tracer, const LoopStats& stats,
                     Report* report) {
  auto totals = tracer.log().TotalsByName();
  auto per = [](double num, double den) { return den > 0 ? num / den : 0.0; };
  auto n = [&](uint32_t name) {
    return static_cast<double>(totals[name].count);
  };
  auto mean_ns = [&](uint32_t name) {
    return per(static_cast<double>(totals[name].total_ns), n(name));
  };
  auto d = [&](uint32_t name, Probe p) {
    return static_cast<double>(tracer.delta(name)[p]);
  };
  auto add = [&](const std::string& name, double v, const char* unit,
                 double samples) {
    report->Add(name, v, unit, static_cast<uint64_t>(samples), Output::kLayer);
  };

  add("search.query_ns", mean_ns(kSpanSearchQuery), "ns", n(kSpanSearchQuery));
  add("search.refine_ns", mean_ns(kSpanSearchRefine), "ns",
      n(kSpanSearchRefine));
  double postings = d(kSpanSearchQuery, kPostings) +
                    d(kSpanSearchRefine, kPostings);
  double searches = n(kSpanSearchQuery) + n(kSpanSearchRefine);
  add("search.postings_per_query", per(postings, searches), "count",
      searches);
  double s_hits = d(kSpanSearchQuery, kSearchHits) +
                  d(kSpanSearchRefine, kSearchHits);
  double s_miss = d(kSpanSearchQuery, kSearchMisses) +
                  d(kSpanSearchRefine, kSearchMisses);
  add("search.cache_hit_ratio", per(s_hits, s_hits + s_miss), "ratio",
      searches);
  add("search.cache_stale_drops",
      per(d(kSpanSearchQuery, kSearchStale) +
              d(kSpanSearchRefine, kSearchStale),
          searches),
      "count/search", searches);

  add("cloud.build_ns", mean_ns(kSpanCloudBuild), "ns", n(kSpanCloudBuild));
  double c_hits = d(kSpanCloudBuild, kCloudHits);
  double c_miss = d(kSpanCloudBuild, kCloudMisses);
  add("cloud.cache_hit_ratio", per(c_hits, c_hits + c_miss), "ratio",
      n(kSpanCloudBuild));
  add("cloud.terms_touched_per_build",
      per(d(kSpanCloudBuild, kCloudTermsTouched),
          d(kSpanCloudBuild, kCloudBuilds)),
      "count", n(kSpanCloudBuild));

  add("social.descriptor_ns", mean_ns(kSpanDescriptor), "ns",
      n(kSpanDescriptor));
  double appends = 0, append_ns = 0, wal_bytes = 0, writes = 0;
  for (OpKind k : {OpKind::kRate, OpKind::kComment, OpKind::kEnroll,
                   OpKind::kVote}) {
    uint32_t span = WriteSpan(k);
    add(std::string("social.write_ns.") +
            kOpKindNames[static_cast<size_t>(k)],
        mean_ns(span), "ns", n(span));
    appends += d(span, kWalAppends);
    append_ns += d(span, kWalAppendNs);
    wal_bytes += d(span, kWalBytes);
    writes += n(span);
  }

  double compiles = n(kSpanCompile);
  double executes = n(kSpanExecute);
  add("flexrecs.compile_ns", mean_ns(kSpanCompile), "ns", n(kSpanCompile));
  add("analysis.ns", per(d(kSpanCompile, kAnalysisNs), compiles), "ns",
      n(kSpanCompile));
  add("flexrecs.execute_ns", mean_ns(kSpanExecute), "ns", n(kSpanExecute));
  double in_steps = d(kSpanExecute, kSqlStepNs) +
                    d(kSpanExecute, kPhysicalStepNs) +
                    d(kSpanExecute, kValuesStepNs);
  add("flexrecs.between_steps_ns",
      per(static_cast<double>(totals[kSpanExecute].total_ns) - in_steps,
          executes),
      "ns", n(kSpanExecute));
  // cr_exec_{join,fused,sort}_ns are left out: none of the five strategies
  // records them, so they would read 0 on every workload.
  const std::pair<const char*, Probe> kOperators[] = {
      {"query.scan_ns", kScanNs},
      {"query.extend_ns", kExtendNs},
      {"query.recommend_ns", kRecommendNs},
      {"query.aggregate_ns", kAggregateNs},
      {"query.filter_ns", kFilterNs},
      {"query.project_ns", kProjectNs},
      {"query.topk_ns", kTopkNs},
      {"query.sql_parse_ns", kSqlParseNs}};
  for (const auto& [name, probe] : kOperators) {
    add(name, per(d(kSpanExecute, probe), executes), "ns", n(kSpanExecute));
  }
  add("query.hash_steps_per_probe",
      per(d(kSpanExecute, kHashSteps), d(kSpanExecute, kHashProbes)), "ratio",
      n(kSpanExecute));
  add("query.fusion_bailouts",
      per(d(kSpanCompile, kFusionBailouts) + d(kSpanExecute, kFusionBailouts),
          executes),
      "count", n(kSpanExecute));
  add("storage.rows_scanned_per_row_out",
      per(d(kSpanExecute, kRowsScanned),
          static_cast<double>(stats.traced_rows_out)),
      "ratio", n(kSpanExecute));
  add("storage.mirror_rebuild_ns", mean_ns(kSpanMirror), "ns", n(kSpanMirror));

  add("storage.wal_append_ns", per(append_ns, appends), "ns", appends);
  add("storage.wal_bytes_per_write", per(wal_bytes, writes), "bytes", writes);
  double fsyncs = d(kSpanWalSync, kWalFsyncs);
  add("storage.wal_fsync_ns", per(d(kSpanWalSync, kWalFsyncNs), fsyncs), "ns",
      n(kSpanWalSync));
  add("storage.wal_fsyncs", per(fsyncs, writes), "count/write", writes);

  double workers = static_cast<double>(cr::SharedThreadPool().num_threads());
  add("pool.busy_ratio",
      per(d(kSpanExecute, kPoolTaskNs),
          workers * static_cast<double>(totals[kSpanExecute].total_ns)),
      "ratio", n(kSpanExecute));
  add("pool.fanout_parallel", per(d(kSpanExecute, kFanoutParallel), executes),
      "count", n(kSpanExecute));
  add("pool.fanout_skipped",
      per(d(kSpanExecute, kFanoutSkippedSmall) +
              d(kSpanExecute, kFanoutSkippedPool),
          executes),
      "count", n(kSpanExecute));
  add("pool.worker_idle", per(d(kSpanExecute, kWorkerIdle), executes),
      "count", n(kSpanExecute));

  // Overhead: traced op time against what the same op classes took
  // untraced, so the op mix of the two halves does not matter.
  double traced = 0, expected = 0;
  uint64_t traced_ops = 0;
  for (size_t c = 0; c < kNumClasses; ++c) {
    const auto& untraced = stats.latency[c];
    if (stats.traced_n[c] == 0 || untraced.empty()) continue;
    double mean = 0;
    for (uint64_t v : untraced) mean += static_cast<double>(v);
    mean /= static_cast<double>(untraced.size());
    traced += static_cast<double>(stats.traced_ns[c]);
    expected += mean * static_cast<double>(stats.traced_n[c]);
    traced_ops += stats.traced_n[c];
  }
  report->Add("obs.trace_overhead_pct", 100.0 * (per(traced, expected) - 1.0),
              "%", traced_ops, Output::kLayer);
}

void PrintSelfTimes(const Tracer& tracer) {
  auto totals = tracer.log().TotalsByName();
  std::printf("span self time (traced ops):\n");
  for (size_t i = 0; i < totals.size(); ++i) {
    if (totals[i].count == 0) continue;
    std::printf("  %-22s n=%-8llu total_ms=%12.3f self_ms=%12.3f\n",
                tracer.log().name(static_cast<uint32_t>(i)).c_str(),
                static_cast<unsigned long long>(totals[i].count),
                totals[i].total_ns / 1e6, totals[i].self_ns / 1e6);
  }
}

int Main(int argc, char** argv) {
  Args args = ParseArgs(argc, argv);
  std::filesystem::create_directories(args.work_dir);

  // Set-up: the median of kSetupRuns full set-ups is setup_s; the last
  // world is the one measured. A traced run sets up once.
  int setup_runs = args.trace ? 1 : kSetupRuns;
  std::vector<double> setup_s;
  uint64_t pools_ns = 0;
  SetupTimes times;
  std::unique_ptr<World> world;
  Pools pools;
  for (int run = 0; run < setup_runs; ++run) {
    world.reset();
    world = BuildWorld(args, &times);
    uint64_t p0 = NowNs();
    pools = BuildPools(*world);  // benchmark bookkeeping, not timed
    pools_ns += NowNs() - p0;
    uint64_t w0 = NowNs();
    WarmUp(*world, pools);
    times.warmup_ns = NowNs() - w0;
    setup_s.push_back(Seconds(times.total_ns()));
  }
  uint64_t n0 = NowNs();
  bool setup_ok = AmericanMatchesNaive(*world);
  uint64_t naive_ns = NowNs() - n0;

  uint64_t digest_value;
  {
    OpStream prefix(args.workload, args.seed, pools);
    StreamDigest digest;
    for (uint64_t i = 0; i < kDigestOps; ++i) digest.Add(prefix.Next());
    digest_value = digest.value();
  }

  std::printf("perfbench workload=%s seed=%llu seconds=%g trace=%d "
              "pool_workers=%zu wal_sync_every=%llu\n",
              args.workload_name.c_str(),
              static_cast<unsigned long long>(args.seed), args.seconds,
              args.trace ? 1 : 0, cr::SharedThreadPool().num_threads(),
              static_cast<unsigned long long>(kSyncEvery));
  std::printf("stream digest=%016llx (first %llu ops)\n",
              static_cast<unsigned long long>(digest_value),
              static_cast<unsigned long long>(kDigestOps));
  std::printf("setup: american hit set equals naive scan: %s\n",
              setup_ok ? "yes" : "NO");

  OpStream stream(args.workload, args.seed, pools);
  Runner runner(*world);
  LoopStats stats;
  std::unique_ptr<Tracer> tracer;
  if (args.trace) tracer = std::make_unique<Tracer>();
  uint64_t budget_ns = static_cast<uint64_t>(args.seconds * 1e9);
  uint64_t op_index = 0;
  while (stats.timed_ns < budget_ns) {
    Op op = stream.Next();
    bool traced = tracer != nullptr && (op_index / kTraceBlock) % 2 == 1;
    if (traced) tracer->set_op(op_index);
    if (runner.Run(op, traced ? tracer.get() : nullptr, &stats)) ++op_index;
  }

  Report report;
  report.Add("setup_s", Median(setup_s), "s", setup_s.size(),
             Output::kEndToEnd);
  report.Add("gen.generate_s", Seconds(times.gen_ns), "s", 1, Output::kLayer);
  report.Add("search.index_build_s", Seconds(times.index_ns), "s", 1,
             Output::kLayer);
  report.Add("storage.wal_attach_s", Seconds(times.wal_ns), "s", 1);
  report.Add("setup.warmup_s", Seconds(times.warmup_ns), "s", 1,
             Output::kLayer);
  AddOpMetrics(stats, args.trace ? Output::kLayer : Output::kPrinted,
               &report);
  report.Add("peak_rss_mb", PeakRssMb(), "MB", 1, Output::kEndToEnd);
  if (tracer != nullptr) AddLayerMetrics(*tracer, stats, &report);

  std::printf("ops attempted=%llu failed_status=%llu output_checks=%llu "
              "failed_checks=%llu\n",
              static_cast<unsigned long long>(stats.attempted),
              static_cast<unsigned long long>(stats.failed_status),
              static_cast<unsigned long long>(stats.checks),
              static_cast<unsigned long long>(stats.failed_checks));
  std::printf("harness (untimed): pools_s=%.3f naive_check_s=%.3f "
              "output_checks_s=%.3f\n",
              Seconds(pools_ns), Seconds(naive_ns), Seconds(stats.check_ns));
  if (!stats.first_failure.empty()) {
    std::printf("first failure: %s\n", stats.first_failure.c_str());
  }
  std::printf("metrics:\n");
  report.Print();

  if (tracer != nullptr) {
    PrintSelfTimes(*tracer);
    std::string path = args.work_dir + "/spans-" + args.workload_name + "-" +
                       std::to_string(args.seed) + ".tsv";
    if (!tracer->log().WriteTsv(path)) Die("cannot write " + path);
    std::printf("spans: %zu written to %s\n", tracer->log().size(),
                path.c_str());
  }
  if (world->wal != nullptr) {
    std::string wal_path = world->wal->path();
    world->site->db().AttachWal(nullptr);
    world->wal.reset();
    std::filesystem::remove(wal_path);
  }
  // The measured world is left to process exit: freeing its ~900 MB of
  // small allocations one by one takes over a second.
  (void)world.release();

  uint64_t failed = stats.failed_status + stats.failed_checks;
  bool correct = setup_ok && failed == 0;
  std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
              "\"metrics\": %s}\n",
              correct ? "true" : "false",
              static_cast<unsigned long long>(stats.attempted),
              static_cast<unsigned long long>(failed),
              report.Json(tracer != nullptr ? Output::kLayer
                                            : Output::kEndToEnd).c_str());
  std::fflush(stdout);
  return 0;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) { return perfbench::Main(argc, argv); }

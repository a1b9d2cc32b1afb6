// Tests for the CQL-like front-end: lexer, parser and compiler, including
// end-to-end execution of the Table 1 statements through the FSPS.
#include <gtest/gtest.h>

#include <limits>
#include <string>
#include <vector>

#include "common/rng.h"
#include "federation/fsps.h"
#include "query/compiler.h"
#include "query/lexer.h"
#include "query/parser.h"
#include "workload/sources.h"

namespace themis {
namespace {

// ---- lexer ---------------------------------------------------------------

TEST(LexerTest, TokenisesTable1Query) {
  auto tokens = Lex("Select Avg(t.v) From Src[Range 1 sec]");
  ASSERT_TRUE(tokens.ok());
  ASSERT_GE(tokens->size(), 12u);
  EXPECT_TRUE((*tokens)[0].IsWord("select"));
  EXPECT_TRUE((*tokens)[1].IsWord("avg"));
  EXPECT_EQ((*tokens)[2].kind, TokenKind::kLParen);
  EXPECT_EQ(tokens->back().kind, TokenKind::kEnd);
}

TEST(LexerTest, OperatorsAndNumbers) {
  auto tokens = Lex("a >= 50.5 and b != 3");
  ASSERT_TRUE(tokens.ok());
  EXPECT_EQ((*tokens)[1].text, ">=");
  EXPECT_DOUBLE_EQ((*tokens)[2].number, 50.5);
  EXPECT_EQ((*tokens)[5].text, "!=");
}

TEST(LexerTest, RejectsStrayCharacters) {
  EXPECT_FALSE(Lex("select #").ok());
  EXPECT_FALSE(Lex("a ! b").ok());
}

TEST(LexerTest, CaseInsensitiveKeywords) {
  auto tokens = Lex("SELECT sElEcT select");
  ASSERT_TRUE(tokens.ok());
  for (int i = 0; i < 3; ++i) EXPECT_TRUE((*tokens)[i].IsWord("Select"));
}

// ---- parser ----------------------------------------------------------------

TEST(ParserTest, ParsesAvgQuery) {
  auto stmt = ParseQuery("Select Avg(t.v) From Src[Range 1 sec]");
  ASSERT_TRUE(stmt.ok()) << stmt.status().ToString();
  EXPECT_EQ(stmt->func.name, "avg");
  ASSERT_EQ(stmt->func.args.size(), 1u);
  EXPECT_EQ(stmt->func.args[0].stream, "t");
  EXPECT_EQ(stmt->func.args[0].field, "v");
  ASSERT_EQ(stmt->streams.size(), 1u);
  EXPECT_EQ(stmt->streams[0].name, "Src");
  EXPECT_EQ(stmt->streams[0].range, kSecond);
  EXPECT_TRUE(stmt->where.empty());
  EXPECT_TRUE(stmt->having.empty());
}

TEST(ParserTest, ParsesCountWithHaving) {
  auto stmt = ParseQuery(
      "Select Count(t.v) From Src[Range 1 sec] Having t.v >= 50");
  ASSERT_TRUE(stmt.ok()) << stmt.status().ToString();
  EXPECT_EQ(stmt->func.name, "count");
  ASSERT_EQ(stmt->having.size(), 1u);
  EXPECT_EQ(stmt->having[0].op, CompareOp::kGe);
  EXPECT_DOUBLE_EQ(stmt->having[0].rhs.literal, 50.0);
}

TEST(ParserTest, ParsesTop5JoinQuery) {
  auto stmt = ParseQuery(
      "Select Top5(CPU.id, CPU.v) From CPU[Range 1 sec], Mem[Range 1 sec] "
      "Where Mem.free >= 100000 and CPU.id = Mem.id");
  ASSERT_TRUE(stmt.ok()) << stmt.status().ToString();
  EXPECT_EQ(stmt->func.name, "top");
  EXPECT_EQ(stmt->func.top_k, 5);
  ASSERT_EQ(stmt->streams.size(), 2u);
  ASSERT_EQ(stmt->where.size(), 2u);
  EXPECT_FALSE(stmt->where[0].IsJoin());
  EXPECT_TRUE(stmt->where[1].IsJoin());
}

TEST(ParserTest, ParsesCovQuery) {
  auto stmt = ParseQuery(
      "Select Cov(S1.value, S2.value) From S1[Range 1 sec], S2[Range 1 sec]");
  ASSERT_TRUE(stmt.ok());
  EXPECT_EQ(stmt->func.name, "cov");
  ASSERT_EQ(stmt->func.args.size(), 2u);
}

TEST(ParserTest, WindowUnits) {
  auto ms = ParseQuery("Select Avg(t.v) From S[Range 250 ms]");
  ASSERT_TRUE(ms.ok());
  EXPECT_EQ(ms->streams[0].range, Millis(250));
  auto min = ParseQuery("Select Avg(t.v) From S[Range 10 min]");
  ASSERT_TRUE(min.ok());
  EXPECT_EQ(min->streams[0].range, 600 * kSecond);
}

TEST(ParserTest, SyntaxErrorsArePositioned) {
  for (const char* bad : {
           "Avg(t.v) From S[Range 1 sec]",          // missing Select
           "Select Avg t.v From S[Range 1 sec]",    // missing parens
           "Select Avg(t.v) S[Range 1 sec]",        // missing From
           "Select Avg(t.v) From S[1 sec]",         // missing Range
           "Select Avg(t.v) From S[Range 1 sec",    // missing ]
           "Select Avg(t.v) From S[Range 1 hr]",    // bad unit
           "Select Avg(t.v) From S[Range 1 sec] Where t.v", // dangling cond
           "Select Avg(t.v) From S[Range 1 sec] extra",     // trailing
       }) {
    auto stmt = ParseQuery(bad);
    EXPECT_FALSE(stmt.ok()) << bad;
    EXPECT_TRUE(stmt.status().IsInvalidArgument()) << bad;
  }
}

// ---- compiler ---------------------------------------------------------------

// Registers the streams the Table 1 statements read.
void RegisterTable1Streams(QueryCompiler* compiler) {
  compiler->RegisterStream("Src", Schema::SingleValue());
  compiler->RegisterStream("S1", Schema::SingleValue());
  compiler->RegisterStream("S2", Schema::SingleValue());
  compiler->RegisterStream("CPU", Schema::IdValue());
  Schema mem({{"id", FieldType::kInt64}, {"free", FieldType::kDouble}});
  compiler->RegisterStream("Mem", mem);
  // The aggregate workload refers to tuples as `t`; alias it to Src's
  // schema so Table 1 statements compile verbatim.
  compiler->RegisterStream("t", Schema::SingleValue());
}

class CompilerTest : public ::testing::Test {
 protected:
  CompilerTest() { RegisterTable1Streams(&compiler_); }

  Result<CompiledQuery> Compile(const std::string& text) {
    return compiler_.CompileString(1, text, &next_source_);
  }

  QueryCompiler compiler_;
  SourceId next_source_ = 0;
};

TEST_F(CompilerTest, CompilesAvg) {
  auto q = Compile("Select Src.v From X[Range 1 sec]");
  EXPECT_FALSE(q.ok());  // malformed on purpose: not a function call

  auto avg = Compile("Select Avg(Src.v) From Src[Range 1 sec]");
  ASSERT_TRUE(avg.ok()) << avg.status().ToString();
  EXPECT_EQ(avg->graph->num_operators(), 3u);  // recv -> avg -> out
  EXPECT_EQ(avg->stream_sources.size(), 1u);
}

TEST_F(CompilerTest, CompilesCountHaving) {
  auto q = Compile(
      "Select Count(Src.v) From Src[Range 1 sec] Having Src.v >= 50");
  ASSERT_TRUE(q.ok()) << q.status().ToString();
  EXPECT_EQ(q->graph->num_operators(), 3u);  // having folds into the count
}

TEST_F(CompilerTest, CompilesWhereAsFilter) {
  auto q = Compile(
      "Select Max(Src.v) From Src[Range 1 sec] Where Src.v >= 10");
  ASSERT_TRUE(q.ok()) << q.status().ToString();
  EXPECT_EQ(q->graph->num_operators(), 4u);  // recv -> filter -> max -> out
}

TEST_F(CompilerTest, CompilesCov) {
  auto q = Compile(
      "Select Cov(S1.v, S2.v) From S1[Range 1 sec], S2[Range 1 sec]");
  ASSERT_TRUE(q.ok()) << q.status().ToString();
  EXPECT_EQ(q->graph->num_operators(), 4u);  // 2 recv -> cov -> out
  EXPECT_EQ(q->stream_sources.size(), 2u);
}

TEST_F(CompilerTest, CompilesTop5Join) {
  auto q = Compile(
      "Select Top5(CPU.id, CPU.v) From CPU[Range 1 sec], Mem[Range 1 sec] "
      "Where Mem.free >= 100000 and CPU.id = Mem.id");
  ASSERT_TRUE(q.ok()) << q.status().ToString();
  // recv, recv, filter(Mem), join, top5, out.
  EXPECT_EQ(q->graph->num_operators(), 6u);
}

TEST_F(CompilerTest, RejectsUnknownStreamAndField) {
  EXPECT_TRUE(Compile("Select Avg(Nope.v) From Nope[Range 1 sec]")
                  .status()
                  .IsNotFound());
  EXPECT_TRUE(Compile("Select Avg(Src.nope) From Src[Range 1 sec]")
                  .status()
                  .IsNotFound());
}

TEST_F(CompilerTest, RejectsUnknownFunction) {
  EXPECT_TRUE(Compile("Select Median(Src.v) From Src[Range 1 sec]")
                  .status()
                  .IsUnimplemented());
}

TEST_F(CompilerTest, RejectsArityMismatches) {
  EXPECT_FALSE(
      Compile("Select Cov(S1.v, S2.v) From S1[Range 1 sec]").ok());
  EXPECT_FALSE(
      Compile("Select Avg(S1.v, S2.v) From S1[Range 1 sec], S2[Range 1 sec]")
          .ok());
  EXPECT_FALSE(Compile("Select Top5(CPU.id) From CPU[Range 1 sec]").ok());
}

TEST_F(CompilerTest, RejectsJoinWithoutCondition) {
  EXPECT_FALSE(
      Compile("Select Top5(CPU.id, CPU.v) From CPU[Range 1 sec], "
              "Mem[Range 1 sec]")
          .ok());
}

// ---- end-to-end: compiled queries run on the FSPS -------------------------

TEST_F(CompilerTest, CompiledCountRunsEndToEnd) {
  auto q = Compile(
      "Select Count(Src.v) From Src[Range 1 sec] Having Src.v >= 50");
  ASSERT_TRUE(q.ok());

  FspsOptions opts;
  opts.coordinator.record_results = true;
  Fsps fsps(opts);
  NodeId node = fsps.AddNode();
  std::map<FragmentId, NodeId> placement = {{0, node}};
  ASSERT_TRUE(fsps.Deploy(std::move(q->graph), placement).ok());

  SourceModel model;
  model.tuples_per_sec = 100;
  model.dataset = Dataset::kUniform;  // uniform(0, 100): ~half >= 50
  ASSERT_TRUE(fsps.AttachSources(1, {}, model).ok());
  fsps.RunFor(Seconds(20));

  EXPECT_GT(fsps.QuerySic(1), 0.9);
  const auto& results = fsps.coordinator(1)->results();
  ASSERT_GT(results.size(), 10u);
  double avg_count = 0;
  for (const auto& r : results) avg_count += AsDouble(r.values[0]);
  avg_count /= results.size();
  EXPECT_NEAR(avg_count, 50.0, 10.0);  // ~half of 100 t/s pass the Having
}

TEST_F(CompilerTest, CompiledTop5RunsEndToEnd) {
  auto q = Compile(
      "Select Top5(CPU.id, CPU.v) From CPU[Range 1 sec], Mem[Range 1 sec] "
      "Where Mem.free >= 0 and CPU.id = Mem.id");
  ASSERT_TRUE(q.ok()) << q.status().ToString();

  FspsOptions opts;
  opts.coordinator.record_results = true;
  Fsps fsps(opts);
  NodeId node = fsps.AddNode();
  ASSERT_TRUE(fsps.Deploy(std::move(q->graph), {{0, node}}).ok());

  // Eight monitored ids on each stream.
  Rng rng(3);
  auto gen = std::make_shared<Rng>(rng.Fork());
  SourceModel cpu;
  cpu.tuples_per_sec = 80;
  cpu.payload = [gen](SimTime) -> ValueList {
    return {Value(gen->UniformInt(0, 7)), Value(gen->Uniform(0, 100))};
  };
  SourceModel mem = cpu;
  auto gen2 = std::make_shared<Rng>(rng.Fork());
  mem.payload = [gen2](SimTime) -> ValueList {
    return {Value(gen2->UniformInt(0, 7)), Value(gen2->Uniform(0, 1e6))};
  };
  SourceId cpu_src = q->stream_sources.at("CPU");
  SourceId mem_src = q->stream_sources.at("Mem");
  ASSERT_TRUE(fsps.AttachSources(1, {{cpu_src, cpu}, {mem_src, mem}}).ok());
  fsps.RunFor(Seconds(20));

  EXPECT_GT(fsps.QuerySic(1), 0.8);
  EXPECT_GT(fsps.coordinator(1)->result_tuples(), 20u);
}

// ---- untrusted text: every input yields a Status --------------------------

TEST(QueryLanguageTest, TopNCountPastIntRangeIsInvalidArgument) {
  auto stmt =
      ParseQuery("Select Top99999999999(Src.id, Src.v) From Src[Range 1 sec]");
  EXPECT_TRUE(stmt.status().IsInvalidArgument()) << stmt.status().ToString();
}

TEST(QueryLanguageTest, WindowUnderOneMicrosecondIsInvalidArgument) {
  // Both would divide by a zero range at the first ingested tuple.
  for (const char* text : {"Select Avg(Src.v) From Src[Range 0 sec]",
                           "Select Avg(Src.v) From Src[Range 0.0000001 sec]"}) {
    EXPECT_TRUE(ParseQuery(text).status().IsInvalidArgument()) << text;
  }
  auto smallest = ParseQuery("Select Avg(Src.v) From Src[Range 0.001 ms]");
  ASSERT_TRUE(smallest.ok()) << smallest.status().ToString();
  EXPECT_EQ(smallest->streams[0].range, 1);
}

TEST(QueryLanguageTest, WindowPastInt64IsInvalidArgument) {
  auto huge = ParseQuery(
      "Select Avg(Src.v) From Src[Range 99999999999999999999 sec]");
  EXPECT_TRUE(huge.status().IsInvalidArgument()) << huge.status().ToString();
  // INT64_MAX us is about 9223372036854.8 s.
  EXPECT_TRUE(ParseQuery("Select Avg(Src.v) From Src[Range 9223372036855 sec]")
                  .status()
                  .IsInvalidArgument());
  auto largest =
      ParseQuery("Select Avg(Src.v) From Src[Range 9223372036854 sec]");
  ASSERT_TRUE(largest.ok()) << largest.status().ToString();
  // The product is rounded in double, so only its magnitude is exact.
  EXPECT_GT(largest->streams[0].range, 9223372036853 * kSecond);
}

// Splits `text` at spaces and the punctuation the lexer knows, keeping the
// punctuation as tokens of its own.
std::vector<std::string> SplitTokens(const std::string& text) {
  std::vector<std::string> tokens;
  std::string cur;
  for (char c : text) {
    if (c == ' ' || std::string("()[],.").find(c) != std::string::npos) {
      if (!cur.empty()) tokens.push_back(cur);
      cur.clear();
      if (c != ' ') tokens.push_back(std::string(1, c));
    } else {
      cur += c;
    }
  }
  if (!cur.empty()) tokens.push_back(cur);
  return tokens;
}

// Replacement tokens for the mutation run, by lexical class: numbers that
// probe the window and TopN bounds, keywords, functions and names, marks.
const std::vector<std::string> kNumbers = {
    "0", "1", "0.0000001", "0.001", "1.5", "007", "250", "9223372036854",
    "9223372036855", "99999999999999999999"};
const std::vector<std::string> kWords = {
    "Select", "From", "Where", "Having", "and", "Range", "sec", "ms", "min",
    "Avg", "Max", "Sum", "Count", "Cov", "Top0", "Top1", "Top99999999999",
    "Src", "S1", "S2", "CPU", "Mem", "t", "v", "id", "free"};
const std::vector<std::string> kMarks = {"(", ")", "[", "]", ",", ".",
                                         "=", "!=", "<", ">="};

// One random edit: a byte replaced, inserted or deleted, or a token replaced
// by one of its own lexical class or of any class, deleted, duplicated or
// swapped with another.
std::string Mutate(const std::string& text, Rng* rng) {
  auto pick = [rng](size_t n) {
    return static_cast<size_t>(rng->UniformInt(0, static_cast<int64_t>(n) - 1));
  };
  std::string out = text;
  const int64_t kind = rng->UniformInt(0, 7);
  if (kind <= 2) {
    if (out.empty()) return out;
    size_t at = pick(out.size());
    char byte = static_cast<char>(rng->UniformInt(0, 255));
    if (kind == 0) out[at] = byte;
    if (kind == 1) out.insert(out.begin() + at, byte);
    if (kind == 2) out.erase(at, 1);
    return out;
  }
  std::vector<std::string> tokens = SplitTokens(out);
  if (tokens.empty()) return out;
  size_t at = pick(tokens.size());
  const unsigned char first = static_cast<unsigned char>(tokens[at][0]);
  const std::vector<std::string>& same_class =
      std::isdigit(first) ? kNumbers : std::isalpha(first) ? kWords : kMarks;
  const std::vector<std::string>* any_class[] = {&kNumbers, &kWords, &kMarks};
  const std::vector<std::string>& other = *any_class[pick(3)];
  if (kind == 3) tokens[at] = same_class[pick(same_class.size())];
  if (kind == 4) tokens[at] = other[pick(other.size())];
  if (kind == 5) tokens.erase(tokens.begin() + at);
  if (kind == 6) tokens.insert(tokens.begin() + at, tokens[at]);
  if (kind == 7) std::swap(tokens[at], tokens[pick(tokens.size())]);
  out.clear();
  for (const std::string& t : tokens) out += t + " ";
  return out;
}

// Seeded mutation run over the Table 1 statements: parsing and compiling
// must return a Status for every edit (never throw), and every statement
// that compiles must survive one tuple ingested into each operator on each
// port, followed by an Advance that releases every window.
TEST(QueryLanguageTest, SeededMutationsAlwaysReturnAStatus) {
  const int kMaxEdits = 2;  // stacked edits per mutation
  const std::vector<std::string> statements = {
      "Select Avg(Src.v) From Src[Range 1 sec]",
      "Select Max(Src.v) From Src[Range 1 sec]",
      "Select Min(t.v) From t[Range 250 ms] Where t.v < 80",
      "Select Count(Src.v) From Src[Range 1 sec] Having Src.v >= 50",
      "Select Cov(S1.v, S2.v) From S1[Range 1 sec], S2[Range 1 sec]",
      "Select Top5(CPU.id, CPU.v) From CPU[Range 1 sec]",
      "Select Top5(CPU.id, CPU.v) From CPU[Range 1 sec], Mem[Range 1 sec] "
      "Where Mem.free >= 100000 and CPU.id = Mem.id",
  };
  QueryCompiler compiler;
  RegisterTable1Streams(&compiler);
  const Tuple tuple(Seconds(1), 0.5, {Value(int64_t{3}), Value(250000.0)});
  const SimTime kEndOfTime = std::numeric_limits<SimTime>::max();

  Rng rng(20160626);
  int mutations = 0, compiled = 0;
  for (const std::string& statement : statements) {
    for (int i = 0; i < 1000; ++i) {
      std::string text = statement;
      for (int edits = static_cast<int>(rng.UniformInt(1, kMaxEdits));
           edits > 0; --edits) {
        text = Mutate(text, &rng);
      }
      ++mutations;
      EXPECT_NO_THROW(ParseQuery(text)) << text;
      std::unique_ptr<QueryGraph> graph;
      EXPECT_NO_THROW({
        SourceId next_source = 0;
        Result<CompiledQuery> q = compiler.CompileString(1, text, &next_source);
        if (q.ok()) graph = std::move(q->graph);
      }) << text;
      if (graph == nullptr) continue;
      ++compiled;
      for (size_t id = 0; id < graph->num_operators(); ++id) {
        Operator* op = graph->op(static_cast<OperatorId>(id));
        for (int port = 0; port < op->num_ports(); ++port) {
          op->Ingest({tuple}, port);
        }
        std::vector<Tuple> out;
        op->Advance(kEndOfTime, &out);
      }
    }
  }
  EXPECT_EQ(mutations, 7000);
  // The run must reach the operators, not stop at the parser.
  EXPECT_GT(compiled, 100);
}

}  // namespace
}  // namespace themis

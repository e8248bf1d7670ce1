#include "lint.hh"

#include <algorithm>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <sstream>

#include "util/json.hh"

#include "budget_manifest.hh"
#include "index.hh"
#include "lexer.hh"

namespace ibp::lint {

namespace {

namespace fs = std::filesystem;

// ---------------------------------------------------------------------
// The lint context

class Linter
{
  public:
    explicit Linter(const Options &options) : options_(options) {}

    Result
    run()
    {
        collectFiles();
        index_.build(files_);
        for (SourceFile &file : files_) {
            ruleLayering(file);
            ruleIncludeOrder(file);
            ruleDeterminismTokens(file);
            ruleUnorderedIteration(file);
            ruleTableModulo(file);
        }
        parseFactory();
        ruleSerdeCoverage();
        ruleSerdeManifest();
        ruleProbeNames();
        ruleIncludeGraph();
        ruleHotPathAlloc();
        ruleLockDiscipline();
        ruleBudgetAccounting();
        ruleBudgetManifest();
        applyFixes();
        std::sort(result_.findings.begin(), result_.findings.end(),
                  [](const Finding &a, const Finding &b) {
                      return std::tie(a.file, a.line, a.rule) <
                             std::tie(b.file, b.line, b.rule);
                  });
        return std::move(result_);
    }

  private:
    bool
    ruleEnabled(const std::string &rule) const
    {
        return options_.onlyRules.empty() ||
               options_.onlyRules.count(rule) > 0;
    }

    /** Report a finding unless an allow() pragma on the same or the
     *  preceding line suppresses it. */
    void
    report(const SourceFile &file, const std::string &rule, int line,
           std::string message)
    {
        if (!ruleEnabled(rule))
            return;
        for (int at = line; at >= line - 1; --at) {
            auto it = file.lexed.allows.find(at);
            if (it != file.lexed.allows.end() &&
                (it->second.count(rule) || it->second.count("all"))) {
                ++result_.suppressed;
                return;
            }
        }
        result_.findings.push_back(
            Finding{rule, file.relPath, line, std::move(message)});
    }

    void
    collectFiles()
    {
        const fs::path root(options_.root);
        std::vector<std::string> rels;
        for (const char *top :
             {"src", "bench", "tools", "tests", "examples"}) {
            const fs::path dir = root / top;
            if (!fs::is_directory(dir))
                continue;
            for (auto it = fs::recursive_directory_iterator(dir);
                 it != fs::recursive_directory_iterator(); ++it) {
                const fs::path &path = it->path();
                const std::string rel =
                    fs::relative(path, root).generic_string();
                if (it->is_directory()) {
                    // Intentionally-broken lint fixtures and build
                    // trees are not part of the linted tree.
                    if (rel == "tests/lint_fixtures" ||
                        path.filename().string().rfind("build", 0) ==
                            0)
                        it.disable_recursion_pending();
                    continue;
                }
                const std::string ext = path.extension().string();
                if (ext == ".hh" || ext == ".cc")
                    rels.push_back(rel);
            }
        }
        std::sort(rels.begin(), rels.end());
        for (const std::string &rel : rels) {
            SourceFile file;
            file.relPath = rel;
            const std::size_t slash = rel.find('/');
            file.dir = rel.substr(0, slash);
            if (file.dir == "src") {
                const std::size_t next = rel.find('/', slash + 1);
                if (next != std::string::npos) {
                    file.layer =
                        rel.substr(slash + 1, next - slash - 1);
                    file.rank = layerRank(file.layer);
                }
            }
            std::ifstream in(root / rel, std::ios::binary);
            if (!in) {
                std::cerr << "ibp_lint: cannot read " << rel << "\n";
                continue;
            }
            std::ostringstream buffer;
            buffer << in.rdbuf();
            file.text = buffer.str();
            file.lines = splitLines(file.text);
            file.lexed = lexFile(file.text);
            result_.scannedFiles.push_back(rel);
            files_.push_back(std::move(file));
        }
    }

    // -----------------------------------------------------------------
    // Rule: layering

    void
    ruleLayering(const SourceFile &file)
    {
        for (const Include &include : file.lexed.includes) {
            if (include.angled)
                continue;
            const std::string segment = firstSegment(include.path);
            if (file.dir == "src") {
                if (isAppDir(segment)) {
                    report(file, "layering", include.line,
                           "src/ must not include \"" + include.path +
                               "\": " + segment +
                               "/ headers sit above the library "
                               "layers");
                    continue;
                }
                const int rank = layerRank(segment);
                if (rank == kRankUnknown)
                    continue; // relative or generated header
                if (rank > file.rank) {
                    std::string allowed;
                    for (int i = 0; i <= file.rank; ++i)
                        allowed += (i ? ", " : "") + kLayers[i];
                    report(file, "layering", include.line,
                           "back-edge include \"" + include.path +
                               "\": " + segment + " (layer " +
                               std::to_string(rank) +
                               ") is above " + file.layer +
                               " (layer " +
                               std::to_string(file.rank) +
                               "); allowed layers: " + allowed);
                }
            }
        }
    }

    // -----------------------------------------------------------------
    // Rule: include-order (fixable)

    struct IncludeRun
    {
        std::vector<std::size_t> members; ///< indices into includes
        int startLine = 0;
    };

    /** Sort key for one project include within a run. */
    static std::pair<int, std::string>
    orderKey(const SourceFile &file, const Include &include,
             bool isFirstInclude)
    {
        const std::string segment = firstSegment(include.path);
        if (segment.empty())
            return {kRankLocal, include.path};
        // The own header of a .cc stays first, matching the
        // include-what-you-use convention.
        if (isFirstInclude && file.relPath.size() >= 3 &&
            file.relPath.compare(file.relPath.size() - 3, 3, ".cc") ==
                0) {
            const std::string stem = fs::path(file.relPath)
                                         .stem()
                                         .string();
            if (fs::path(include.path).stem().string() == stem)
                return {kRankLocal - 1, include.path};
        }
        return {layerRank(segment), include.path};
    }

    void
    ruleIncludeOrder(SourceFile &file)
    {
        const std::vector<Include> &includes = file.lexed.includes;
        std::vector<IncludeRun> runs;
        IncludeRun current;
        int prevLine = -10;
        for (std::size_t i = 0; i < includes.size(); ++i) {
            const Include &include = includes[i];
            if (include.angled) {
                prevLine = -10;
                continue;
            }
            if (include.line != prevLine + 1) {
                if (current.members.size() > 1)
                    runs.push_back(current);
                current = IncludeRun{};
                current.startLine = include.line;
            }
            current.members.push_back(i);
            prevLine = include.line;
        }
        if (current.members.size() > 1)
            runs.push_back(current);

        for (const IncludeRun &run : runs) {
            std::vector<std::size_t> sorted = run.members;
            std::sort(sorted.begin(), sorted.end(),
                      [&](std::size_t a, std::size_t b) {
                          return orderKey(file, includes[a], a == 0) <
                                 orderKey(file, includes[b], b == 0);
                      });
            if (sorted == run.members)
                continue;
            std::string want;
            for (std::size_t idx : sorted)
                want += (want.empty() ? "\"" : ", \"") +
                        includes[idx].path + "\"";
            report(file, "include-order", run.startLine,
                   "project includes not in layer order; expected " +
                       want + " (ibp_lint --fix reorders them)");
            FixRun fix;
            fix.file = &file;
            for (std::size_t idx : run.members)
                fix.lines.push_back(includes[idx].line);
            for (std::size_t idx : sorted)
                fix.sortedLines.push_back(includes[idx].line);
            fixRuns_.push_back(std::move(fix));
        }
    }

    // -----------------------------------------------------------------
    // Rules: determinism-random, determinism-clock

    void
    ruleDeterminismTokens(const SourceFile &file)
    {
        // obs/cputime.hh is the one sanctioned clock shim; everything
        // else — including the rest of the obs layer (timelines,
        // trace events, phase timers) — must read time through
        // obs::wallSeconds()/threadCpuSeconds() so every clock read
        // funnels through a single auditable chokepoint.
        if (file.dir != "src" || file.relPath == "src/obs/cputime.hh")
            return;
        const bool in_obs = file.layer == "obs";
        static const std::set<std::string> banned_random = {
            "rand",    "srand",   "rand_r",        "drand48",
            "lrand48", "mrand48", "random_device",
        };
        const std::vector<Token> &tokens = file.lexed.tokens;
        for (std::size_t i = 0; i < tokens.size(); ++i) {
            const Token &token = tokens[i];
            if (token.kind != TokenKind::Identifier)
                continue;
            const bool called =
                i + 1 < tokens.size() && tokens[i + 1].text == "(";
            if (banned_random.count(token.text) &&
                (called || token.text == "random_device")) {
                report(file, "determinism-random", token.line,
                       "non-deterministic source `" + token.text +
                           "` (use util::Rng, which is seeded and "
                           "checkpointable)");
                continue;
            }
            if (token.text == "now" && called && i > 0 &&
                tokens[i - 1].text == "::" &&
                i + 2 < tokens.size() && tokens[i + 2].text == ")") {
                report(file, "determinism-clock", token.line,
                       in_obs
                           ? "raw ::now() clock read in obs/ outside "
                             "cputime.hh (route timeline/trace-event "
                             "timestamps through obs::wallSeconds())"
                           : "raw ::now() wall-clock read outside "
                             "obs/ (use obs::wallSeconds()/"
                             "obs::PhaseTimer so every clock read is "
                             "auditable)");
                continue;
            }
            if (token.text == "time" && called) {
                const bool qualified =
                    i > 0 && tokens[i - 1].text == "::";
                const bool argless_form =
                    i + 2 < tokens.size() &&
                    (tokens[i + 2].text == "0" ||
                     tokens[i + 2].text == "NULL" ||
                     tokens[i + 2].text == "nullptr");
                if (qualified || argless_form)
                    report(file, "determinism-clock", token.line,
                           "time() wall-clock read outside obs/");
            }
        }
    }

    // -----------------------------------------------------------------
    // Rule: determinism-unordered-iter

    void
    ruleUnorderedIteration(const SourceFile &file)
    {
        if (file.dir != "src")
            return;
        const std::vector<Token> &tokens = file.lexed.tokens;

        // Names declared directly as unordered containers (members or
        // locals).  Container-of-container declarations are skipped:
        // iterating the outer vector is deterministic.
        std::set<std::string> unordered;
        for (std::size_t i = 0; i < tokens.size(); ++i) {
            const Token &token = tokens[i];
            if (token.text != "unordered_map" &&
                token.text != "unordered_set" &&
                token.text != "unordered_multimap" &&
                token.text != "unordered_multiset")
                continue;
            std::size_t j = i + 1;
            if (j < tokens.size() && tokens[j].text == "<") {
                int angle = 0;
                for (; j < tokens.size(); ++j) {
                    if (tokens[j].text == "<")
                        ++angle;
                    else if (tokens[j].text == ">" && --angle == 0) {
                        ++j;
                        break;
                    } else if (tokens[j].text == ";" ||
                               tokens[j].text == "{")
                        break; // not a template argument list
                }
            }
            while (j < tokens.size() && (tokens[j].text == "*" ||
                                         tokens[j].text == "&" ||
                                         tokens[j].text == "const"))
                ++j;
            if (j < tokens.size() &&
                tokens[j].kind == TokenKind::Identifier)
                unordered.insert(tokens[j].text);
        }
        if (unordered.empty())
            return;

        // Range-for loops whose range expression names one of them.
        for (std::size_t i = 0; i + 1 < tokens.size(); ++i) {
            if (tokens[i].text != "for" || tokens[i + 1].text != "(")
                continue;
            const std::size_t close = matchingClose(tokens, i + 1);
            // Find the range-for ':' at paren depth 1 (skip "::").
            int depth = 0;
            std::size_t colon = 0;
            for (std::size_t j = i + 1; j < close; ++j) {
                if (tokens[j].text == "(")
                    ++depth;
                else if (tokens[j].text == ")")
                    --depth;
                else if (tokens[j].text == ";")
                    break; // classic for loop
                else if (tokens[j].text == ":" && depth == 1) {
                    colon = j;
                    break;
                }
            }
            if (colon == 0)
                continue;
            for (std::size_t j = colon + 1; j < close; ++j) {
                if (tokens[j].kind == TokenKind::Identifier &&
                    unordered.count(tokens[j].text)) {
                    report(file, "determinism-unordered-iter",
                           tokens[j].line,
                           "iteration over unordered container `" +
                               tokens[j].text +
                               "`: traversal order is "
                               "implementation-defined and leaks "
                               "into metrics/reports/serde (sort "
                               "into a vector or use std::map / "
                               "util::FlatMap)");
                    break;
                }
            }
        }
    }

    // -----------------------------------------------------------------
    // Rule: table-modulo

    void
    ruleTableModulo(const SourceFile &file)
    {
        if (file.layer != "core" && file.layer != "predictors")
            return;
        static const std::set<std::string> exempt_calls = {
            "fatal_if", "panic_if",      "fatal",
            "panic",    "static_assert", "assert",
            "ibp_table_check",
        };
        const std::vector<Token> &tokens = file.lexed.tokens;
        int depth = 0;
        std::vector<int> exempt_depths;
        for (std::size_t i = 0; i < tokens.size(); ++i) {
            const Token &token = tokens[i];
            if (token.text == "(") {
                ++depth;
                if (i > 0 &&
                    tokens[i - 1].kind == TokenKind::Identifier &&
                    exempt_calls.count(tokens[i - 1].text))
                    exempt_depths.push_back(depth);
            } else if (token.text == ")") {
                if (!exempt_depths.empty() &&
                    exempt_depths.back() == depth)
                    exempt_depths.pop_back();
                --depth;
            } else if (token.text == "%" && exempt_depths.empty()) {
                report(file, "table-modulo", token.line,
                       "modulo indexing in the predictor layers: use "
                       "Table::reduce() or util::reduceIndex() "
                       "(masked on power-of-two geometries, PR 2)");
            }
        }
    }

    // -----------------------------------------------------------------
    // Class model + serde rules

    const SourceFile *
    findFile(const std::string &relPath) const
    {
        return index_.findFile(relPath);
    }

    /** True when @p name transitively derives from IndirectPredictor
     *  through classes visible in the tree. */
    bool
    derivesFromPredictor(const std::string &name,
                         std::set<std::string> &seen) const
    {
        if (!seen.insert(name).second)
            return false;
        auto it = index_.serdeClasses.find(name);
        if (it == index_.serdeClasses.end())
            return false;
        for (const std::string &base : it->second.bases) {
            if (base == "IndirectPredictor")
                return true;
            if (derivesFromPredictor(base, seen))
                return true;
        }
        return false;
    }

    /** True when @p name or a proper ancestor *below* the
     *  IndirectPredictor root declares @p method. */
    bool
    declaresThroughChain(const std::string &name,
                         const std::string &method,
                         std::set<std::string> &seen) const
    {
        if (name == "IndirectPredictor" || name == "Predictor")
            return false; // the root's no-op default does not count
        if (!seen.insert(name).second)
            return false;
        auto it = index_.serdeClasses.find(name);
        if (it == index_.serdeClasses.end())
            return false;
        if (it->second.methods.count(method))
            return true;
        for (const std::string &base : it->second.bases) {
            std::set<std::string> chain = seen;
            if (declaresThroughChain(base, method, chain))
                return true;
        }
        return false;
    }

    /** Parse sim/factory.cc: registered name -> implementing class. */
    void
    parseFactory()
    {
        const SourceFile *factory = findFile("src/sim/factory.cc");
        if (!factory)
            return;
        const std::vector<Token> &tokens = factory->lexed.tokens;
        // Find the makePredictor() definition body.
        std::size_t body_begin = 0, body_end = 0;
        for (std::size_t i = 0; i + 1 < tokens.size(); ++i) {
            if (tokens[i].text != "makePredictor" ||
                tokens[i + 1].text != "(")
                continue;
            const std::size_t params = matchingClose(tokens, i + 1);
            if (params + 1 < tokens.size() &&
                tokens[params + 1].text == "{") {
                body_begin = params + 2;
                body_end = matchingClose(tokens, params + 1);
                break;
            }
        }
        if (body_begin == 0)
            return;
        std::set<std::string> pending;
        for (std::size_t i = body_begin; i < body_end; ++i) {
            const Token &token = tokens[i];
            // "==" is two Punct tokens in this lexer.
            if (token.text == "=" && i + 2 < body_end &&
                tokens[i + 1].text == "=" &&
                tokens[i + 2].kind == TokenKind::String) {
                pending.insert(tokens[i + 2].text);
            } else if (token.text == "starts_with" &&
                       i + 2 < body_end &&
                       tokens[i + 1].text == "(" &&
                       tokens[i + 2].kind == TokenKind::String) {
                pending.insert(tokens[i + 2].text + "*");
            } else if (token.text == "make_unique" &&
                       i + 1 < body_end &&
                       tokens[i + 1].text == "<") {
                std::string cls;
                for (std::size_t j = i + 2;
                     j < body_end && tokens[j].text != ">"; ++j)
                    if (tokens[j].kind == TokenKind::Identifier)
                        cls = tokens[j].text;
                for (const std::string &name : pending)
                    result_.factoryPredictors[name] = cls;
                pending.clear();
            }
        }
    }

    void
    ruleSerdeCoverage()
    {
        // Every factory-registered class plus every class deriving
        // from IndirectPredictor must carry the full serde surface.
        std::set<std::string> required;
        for (const auto &[name, cls] : result_.factoryPredictors) {
            (void)name;
            if (!cls.empty())
                required.insert(cls);
        }
        for (const auto &[name, info] : index_.serdeClasses) {
            (void)info;
            std::set<std::string> seen;
            if (derivesFromPredictor(name, seen))
                required.insert(name);
        }
        for (const std::string &name : required) {
            auto it = index_.serdeClasses.find(name);
            if (it == index_.serdeClasses.end()) {
                // Registered in the factory but not found in src/.
                Finding finding;
                finding.rule = "serde-coverage";
                finding.file = "src/sim/factory.cc";
                finding.message =
                    "factory registers class `" + name +
                    "` but no definition was found under src/";
                if (ruleEnabled(finding.rule))
                    result_.findings.push_back(std::move(finding));
                continue;
            }
            const ClassInfo &info = it->second;
            const SourceFile *file = findFile(info.file);
            for (const char *method :
                 {"saveState", "loadState", "snapshotProbes"}) {
                std::set<std::string> seen;
                if (declaresThroughChain(name, method, seen))
                    continue;
                const std::string message =
                    "predictor class `" + name + "` does not declare " +
                    method +
                    "() (directly or via a base): checkpoints would "
                    "silently skip its state";
                if (file)
                    report(*file, "serde-coverage", info.line,
                           message);
            }
        }
    }

    void
    ruleSerdeManifest()
    {
        // Tracked set: every class that declares saveState() itself.
        std::map<std::string, const ClassInfo *> tracked;
        for (const auto &[key, info] : index_.serdeClasses)
            if (info.declaresSaveState)
                tracked.emplace(key, &info);
        for (const auto &[key, info] : tracked)
            result_.serdeHashes[key] = info->shapeHash;

        const fs::path manifest_path =
            fs::path(options_.root) / options_.manifestPath;

        if (options_.updateManifest) {
            fs::create_directories(manifest_path.parent_path());
            std::ofstream out(manifest_path);
            util::JsonWriter json(out);
            json.beginObject();
            json.key("comment").value(
                "Serialized-state shape manifest, generated by "
                "`ibp_lint --update-manifest`.  Each entry hashes the "
                "data-member declarations of a class that implements "
                "saveState(); the serde-manifest lint rule fails when "
                "a hash drifts, forcing a conscious review of "
                "checkpoint compatibility (and a format-version bump "
                "where needed) before regenerating.");
            json.key("format").value(1);
            json.key("classes").beginObject();
            for (const auto &[key, info] : tracked)
                json.key(key).value(info->shapeHash);
            json.endObject();
            json.endObject();
            out << "\n";
            result_.manifestUpdated = true;
            return;
        }

        if (!fs::exists(manifest_path)) {
            if (tracked.empty())
                return; // nothing checkpointed, nothing to pin
            Finding finding;
            finding.rule = "serde-manifest";
            finding.file = options_.manifestPath;
            finding.message =
                "serde manifest missing; generate it with "
                "`ibp_lint --update-manifest`";
            if (ruleEnabled(finding.rule))
                result_.findings.push_back(std::move(finding));
            return;
        }
        std::ifstream in(manifest_path);
        std::ostringstream buffer;
        buffer << in.rdbuf();
        const util::JsonValue doc = util::parseJson(buffer.str());
        const util::JsonValue *recorded = doc.find("classes");
        std::map<std::string, std::string> old_hashes;
        if (recorded)
            for (const auto &[key, value] : recorded->asObject())
                old_hashes[key] = value.asString();

        for (const auto &[key, info] : tracked) {
            const SourceFile *file = findFile(info->file);
            auto it = old_hashes.find(key);
            if (it == old_hashes.end()) {
                if (file)
                    report(*file, "serde-manifest", info->line,
                           "class `" + key +
                               "` implements saveState() but has no "
                               "serde manifest entry; review its "
                               "checkpoint format, then run "
                               "`ibp_lint --update-manifest`");
                continue;
            }
            if (it->second != info->shapeHash && file)
                report(*file, "serde-manifest", info->line,
                       "serialized-state shape of `" + key +
                           "` changed (manifest " + it->second +
                           ", tree " + info->shapeHash +
                           "): audit saveState()/loadState() and "
                           "bump the relevant format version, then "
                           "run `ibp_lint --update-manifest`");
        }
        for (const auto &[key, hash] : old_hashes) {
            (void)hash;
            if (!tracked.count(key)) {
                Finding finding;
                finding.rule = "serde-manifest";
                finding.file = options_.manifestPath;
                finding.message =
                    "manifest entry `" + key +
                    "` has no matching class in src/; run "
                    "`ibp_lint --update-manifest`";
                if (ruleEnabled(finding.rule))
                    result_.findings.push_back(std::move(finding));
            }
        }
    }

    // -----------------------------------------------------------------
    // Rule: probe-name

    static bool
    validProbeName(const std::string &name)
    {
        if (name.empty() || name.front() == '/' || name.back() == '/')
            return false;
        bool segment_empty = true;
        for (const char c : name) {
            if (c == '/') {
                if (segment_empty)
                    return false;
                segment_empty = true;
            } else if ((c >= 'a' && c <= 'z') ||
                       (c >= '0' && c <= '9') || c == '_') {
                segment_empty = false;
            } else {
                return false;
            }
        }
        return !segment_empty;
    }

    void
    ruleProbeNames()
    {
        for (const SourceFile &file : files_) {
            if (file.dir != "src")
                continue;
            const std::vector<Token> &tokens = file.lexed.tokens;
            for (std::size_t i = 0; i + 1 < tokens.size(); ++i) {
                if (tokens[i].text != "snapshotProbes" ||
                    tokens[i + 1].text != "(")
                    continue;
                std::size_t j = matchingClose(tokens, i + 1) + 1;
                while (j < tokens.size() &&
                       (tokens[j].text == "const" ||
                        tokens[j].text == "override" ||
                        tokens[j].text == "final" ||
                        tokens[j].text == "noexcept"))
                    ++j;
                if (j >= tokens.size() || tokens[j].text != "{")
                    continue; // declaration only
                const std::size_t body_end = matchingClose(tokens, j);
                for (std::size_t k = j; k + 3 < body_end; ++k) {
                    if (tokens[k].text != "." ||
                        (tokens[k + 1].text != "counter" &&
                         tokens[k + 1].text != "histogram") ||
                        tokens[k + 2].text != "(" ||
                        tokens[k + 3].kind != TokenKind::String)
                        continue;
                    const std::string &name = tokens[k + 3].text;
                    if (!validProbeName(name))
                        report(file, "probe-name", tokens[k + 3].line,
                               "probe name \"" + name +
                                   "\" violates the convention "
                                   "[a-z0-9_]+(/[a-z0-9_]+)*");
                }
                i = body_end;
            }
        }
    }

    // -----------------------------------------------------------------
    // Rule: include-graph (missing own header, include cycles)

    void
    ruleIncludeGraph()
    {
        // A .cc with a same-stem sibling header must include it (the
        // include-what-you-use own-header convention the
        // include-order rule already sorts first).
        for (const SourceFile &file : files_) {
            if (file.relPath.size() < 3 ||
                file.relPath.compare(file.relPath.size() - 3, 3,
                                     ".cc") != 0)
                continue;
            const std::string own =
                file.relPath.substr(0, file.relPath.size() - 3) +
                ".hh";
            if (!index_.findFile(own))
                continue;
            bool included = false;
            auto edges = index_.includeEdges.find(file.relPath);
            if (edges != index_.includeEdges.end())
                for (const auto &[target, line] : edges->second) {
                    (void)line;
                    if (target == own)
                        included = true;
                }
            if (!included)
                report(file, "include-graph", 1,
                       "missing own header: \"" +
                           own.substr(own.rfind('/') + 1) +
                           "\" exists next to this .cc but is not "
                           "included (include it first so its "
                           "self-containedness is compiler-checked)");
        }

        // Cycle detection over the resolved quoted-include graph.
        std::map<std::string, int> color; // 0 white, 1 gray, 2 black
        std::vector<std::string> stack;
        std::set<std::string> reported;
        const auto dfs = [&](const std::string &node,
                             const auto &self) -> void {
            color[node] = 1;
            stack.push_back(node);
            auto edges = index_.includeEdges.find(node);
            if (edges != index_.includeEdges.end())
                for (const auto &[next, line] : edges->second) {
                    if (color[next] == 1) {
                        auto at = std::find(stack.begin(),
                                            stack.end(), next);
                        std::vector<std::string> cycle(at,
                                                       stack.end());
                        // Canonical key: rotate the smallest member
                        // to the front so each cycle reports once.
                        auto min = std::min_element(cycle.begin(),
                                                    cycle.end());
                        std::rotate(cycle.begin(), min, cycle.end());
                        std::string key;
                        for (const std::string &f : cycle)
                            key += f + ";";
                        if (!reported.insert(key).second)
                            continue;
                        std::string path;
                        for (const std::string &f : cycle)
                            path += f + " -> ";
                        path += cycle.front();
                        const SourceFile *file =
                            index_.findFile(node);
                        if (file)
                            report(*file, "include-graph", line,
                                   "include cycle: " + path +
                                       " (break it with a forward "
                                       "declaration or by moving "
                                       "the shared type down a "
                                       "layer)");
                    } else if (color[next] == 0) {
                        self(next, self);
                    }
                }
            stack.pop_back();
            color[node] = 2;
        };
        for (const SourceFile &file : files_)
            if (color[file.relPath] == 0)
                dfs(file.relPath, dfs);
    }

    // -----------------------------------------------------------------
    // Rule: hot-path-alloc

    void
    ruleHotPathAlloc()
    {
        static const std::set<std::string> hot_methods = {
            "predict", "update", "predictAndUpdate", "train",
        };
        static const std::set<std::string> banned_calls = {
            "malloc",       "calloc", "realloc",
            "push_back",    "emplace_back", "push_front",
            "emplace_front", "resize", "reserve",
            "to_string",
        };
        static const std::set<std::string> string_types = {
            "string", "ostringstream", "stringstream",
        };
        for (const auto &[key, cls] : index_.classes) {
            (void)key;
            for (const std::string &method : hot_methods) {
                auto bodies = cls.bodies.find(method);
                if (bodies == cls.bodies.end())
                    continue;
                for (const MethodBody &body : bodies->second) {
                    const SourceFile &file = *body.file;
                    if (file.layer != "predictors" &&
                        file.layer != "core")
                        continue;
                    const std::vector<Token> &tokens =
                        file.lexed.tokens;
                    for (std::size_t i = body.bodyBegin;
                         i < body.bodyEnd; ++i) {
                        const Token &t = tokens[i];
                        if (t.kind != TokenKind::Identifier)
                            continue;
                        const bool called =
                            i + 1 < body.bodyEnd &&
                            tokens[i + 1].text == "(";
                        std::string what;
                        if (t.text == "new")
                            what = "`new` allocation";
                        else if (t.text == "throw")
                            what = "`throw` (unwinding)";
                        else if (banned_calls.count(t.text) && called)
                            what = "`" + t.text + "()` (allocates)";
                        else if (string_types.count(t.text))
                            what = "std::" + t.text + " construction";
                        if (what.empty())
                            continue;
                        report(file, "hot-path-alloc", t.line,
                               what + " inside " + cls.name +
                                   "::" + method +
                                   "(), a per-branch hot path: "
                                   "preallocate in the constructor "
                                   "or move the slow path behind "
                                   "`// ibp-lint: allow("
                                   "hot-path-alloc)` with a comment "
                                   "saying why it is cold");
                    }
                }
            }
        }
    }

    // -----------------------------------------------------------------
    // Rule: lock-discipline

    /** Mutexes locked in [begin, end): names appearing inside the
     *  parens of a lock_guard/unique_lock/scoped_lock construction. */
    static std::set<std::string>
    lockedMutexes(const std::vector<Token> &tokens, std::size_t begin,
                  std::size_t end)
    {
        static const std::set<std::string> lock_types = {
            "lock_guard", "unique_lock", "scoped_lock",
        };
        std::set<std::string> locked;
        for (std::size_t i = begin; i < end; ++i) {
            if (!lock_types.count(tokens[i].text))
                continue;
            // Skip the template argument list and the variable name:
            // the next '(' or '{' opens the constructor arguments.
            std::size_t j = i + 1;
            while (j < end && tokens[j].text != "(" &&
                   tokens[j].text != "{" && tokens[j].text != ";")
                ++j;
            if (j >= end || tokens[j].text == ";")
                continue;
            const std::size_t close =
                std::min(matchingClose(tokens, j), end);
            for (std::size_t k = j + 1; k < close; ++k)
                if (tokens[k].kind == TokenKind::Identifier)
                    locked.insert(tokens[k].text);
            i = close;
        }
        return locked;
    }

    void
    ruleLockDiscipline()
    {
        for (const auto &[key, cls] : index_.classes) {
            (void)key;
            std::map<std::string, std::string> guarded;
            for (const Member &member : cls.members)
                if (!member.guardedBy.empty())
                    guarded[member.name] = member.guardedBy;
            if (guarded.empty())
                continue;
            for (const auto &[method, bodies] : cls.bodies) {
                // Constructors and destructors run before/after any
                // sharing, matching clang thread-safety semantics.
                if (method == cls.name ||
                    method == "~" + cls.name)
                    continue;
                for (const MethodBody &body : bodies) {
                    const std::vector<Token> &tokens =
                        body.file->lexed.tokens;
                    const std::set<std::string> locked =
                        lockedMutexes(tokens, body.bodyBegin,
                                      body.bodyEnd);
                    std::set<std::string> flagged;
                    for (std::size_t i = body.bodyBegin;
                         i < body.bodyEnd; ++i) {
                        const Token &t = tokens[i];
                        if (t.kind != TokenKind::Identifier)
                            continue;
                        auto it = guarded.find(t.text);
                        if (it == guarded.end())
                            continue;
                        const std::string &mutex = it->second;
                        if (locked.count(mutex) ||
                            body.requiresLock == mutex)
                            continue;
                        if (!flagged.insert(t.text).second)
                            continue; // one finding per member/body
                        report(*body.file, "lock-discipline", t.line,
                               "member `" + t.text +
                                   "` is guarded by `" + mutex +
                                   "` but " + cls.name + "::" +
                                   method +
                                   "() touches it without "
                                   "constructing a lock_guard/"
                                   "unique_lock/scoped_lock on it "
                                   "(or annotate the method "
                                   "`// ibp-lint: requires_lock(" +
                                   mutex + ")` if every caller "
                                   "already holds it)");
                    }
                }
            }
        }
    }

    // -----------------------------------------------------------------
    // Rule: budget-accounting

    static bool
    tableLike(const Member &member)
    {
        static const std::set<std::string> markers = {
            "DirectTable",   "AssocTable",    "FlatMap",
            "ShiftHistory",  "SymbolHistory", "FoldedHistory",
            "SfsxsWord",     "SfsxsHistory",  "TargetEntry",
            "array",
        };
        for (const std::string &t : member.typeTokens)
            if (markers.count(t))
                return true;
        return false;
    }

    /** Unique factory-registered classes that exist in the index. */
    std::map<std::string, const IndexedClass *>
    factoryClasses() const
    {
        std::map<std::string, const IndexedClass *> out;
        for (const auto &[name, clsName] :
             result_.factoryPredictors) {
            (void)name;
            const IndexedClass *cls = index_.findClass(clsName);
            if (cls)
                out.emplace(clsName, cls);
        }
        return out;
    }

    /** Every identifier reachable from @p cls's storageBits() bodies,
     *  following calls into same-class helper methods. */
    std::set<std::string>
    storageBitsClosure(const IndexedClass &cls, bool &hasBody) const
    {
        std::set<std::string> referenced;
        std::set<std::string> visited;
        std::vector<std::string> queue = {"storageBits"};
        hasBody = false;
        while (!queue.empty()) {
            const std::string method = queue.back();
            queue.pop_back();
            if (!visited.insert(method).second)
                continue;
            auto bodies = cls.bodies.find(method);
            if (bodies == cls.bodies.end())
                continue;
            for (const MethodBody &body : bodies->second) {
                hasBody = true;
                const std::vector<Token> &tokens =
                    body.file->lexed.tokens;
                for (std::size_t i = body.bodyBegin;
                     i < body.bodyEnd; ++i) {
                    if (tokens[i].kind != TokenKind::Identifier)
                        continue;
                    referenced.insert(tokens[i].text);
                    if (cls.methodNames.count(tokens[i].text))
                        queue.push_back(tokens[i].text);
                }
            }
        }
        return referenced;
    }

    void
    ruleBudgetAccounting()
    {
        for (const auto &[clsName, cls] : factoryClasses()) {
            const SourceFile *file = index_.findFile(cls->file);
            if (!file)
                continue;
            std::set<std::string> seen;
            if (!declaresThroughChain(clsName, "storageBits", seen)) {
                report(*file, "budget-accounting", cls->line,
                       "factory predictor `" + clsName +
                           "` does not override storageBits(): "
                           "every lineup member must report its "
                           "hardware cost so the fixed-budget "
                           "comparison stays honest");
                continue;
            }
            bool hasBody = false;
            const std::set<std::string> referenced =
                storageBitsClosure(*cls, hasBody);
            if (!hasBody)
                continue; // declaration-only trees (fixtures)
            for (const Member &member : cls->members) {
                if (!tableLike(member))
                    continue;
                if (referenced.count(member.name))
                    continue;
                report(*file, "budget-accounting", member.line,
                       "table-like member `" + member.name +
                           "` of `" + clsName +
                           "` is not referenced in storageBits(): "
                           "its entries are invisible to the "
                           "hardware-budget audit (count it from "
                           "the member itself, e.g. " + member.name +
                           ".size() * entry_bits)");
            }
        }
    }

    void
    ruleBudgetManifest()
    {
        BudgetManifest current; // the tree's classes and shapes
        current.comment =
            "Hardware-budget geometry manifest, generated by "
            "`ibp_lint --update-manifest`.  Each factory name "
            "pins its implementing class, an FNV-1a shape hash "
            "of the class's (member -> extent-expression) map "
            "(recursed through composed classes), and the "
            "runtime storageBits() total recorded by "
            "`ibp budget --update`.  The budget-accounting "
            "lint rule fails on shape drift; CI cross-checks "
            "storage_bits against the live build.";
        for (const auto &[name, clsName] :
             result_.factoryPredictors) {
            const IndexedClass *cls = index_.findClass(clsName);
            if (!cls)
                continue;
            BudgetManifestEntry &entry = current.predictors[name];
            entry.className = clsName;
            entry.shape = index_.budgetShapeHash(*cls);
            result_.budgetHashes[name] = entry.shape;
        }

        const fs::path manifest_path =
            fs::path(options_.root) / options_.budgetManifestPath;

        BudgetManifest recorded;
        const bool exists =
            readBudgetManifest(manifest_path.string(), recorded);

        if (options_.updateManifest) {
            if (current.predictors.empty() && !exists)
                return; // no factory, nothing to pin
            // Keep recorded storage_bits: the static pass knows
            // shapes, `ibp budget --update` knows totals.
            for (auto &[name, entry] : current.predictors)
                if (auto it = recorded.predictors.find(name);
                    it != recorded.predictors.end())
                    entry.storageBits = it->second.storageBits;
            fs::create_directories(manifest_path.parent_path());
            writeBudgetManifest(manifest_path.string(), current);
            result_.manifestUpdated = true;
            return;
        }

        if (!exists) {
            if (current.predictors.empty())
                return;
            Finding finding;
            finding.rule = "budget-accounting";
            finding.file = options_.budgetManifestPath;
            finding.message =
                "budget manifest missing; generate it with "
                "`ibp_lint --update-manifest` (then record runtime "
                "totals with `ibp budget --update`)";
            if (ruleEnabled(finding.rule))
                result_.findings.push_back(std::move(finding));
            return;
        }

        for (const auto &[name, entry] : current.predictors) {
            const IndexedClass *cls =
                index_.findClass(entry.className);
            const SourceFile *file =
                cls ? index_.findFile(cls->file) : nullptr;
            auto it = recorded.predictors.find(name);
            if (it == recorded.predictors.end()) {
                if (file)
                    report(*file, "budget-accounting", cls->line,
                           "factory name `" + name +
                               "` (class `" + entry.className +
                               "`) has no budget manifest entry; "
                               "audit its storageBits() against the "
                               "2K-entry envelope, then run "
                               "`ibp_lint --update-manifest` and "
                               "`ibp budget --update`");
                continue;
            }
            if (it->second.shape != entry.shape && file)
                report(*file, "budget-accounting", cls->line,
                       "table geometry shape of `" + entry.className +
                           "` (registered as " + name +
                           ") changed (manifest " +
                           it->second.shape + ", tree " +
                           entry.shape +
                           "): re-audit storageBits() against the "
                           "fixed hardware budget, then run "
                           "`ibp_lint --update-manifest` and "
                           "`ibp budget --update`");
        }
        for (const auto &[name, entry] : recorded.predictors) {
            (void)entry;
            if (!current.predictors.count(name)) {
                Finding finding;
                finding.rule = "budget-accounting";
                finding.file = options_.budgetManifestPath;
                finding.message =
                    "budget manifest entry `" + name +
                    "` is no longer registered in the factory; run "
                    "`ibp_lint --update-manifest`";
                if (ruleEnabled(finding.rule))
                    result_.findings.push_back(std::move(finding));
            }
        }
    }

    // -----------------------------------------------------------------
    // --fix engine (include reordering)

    struct FixRun
    {
        SourceFile *file = nullptr;
        std::vector<int> lines;       ///< original 1-based line slots
        std::vector<int> sortedLines; ///< source line for each slot
    };

    void
    applyFixes()
    {
        if (!options_.fix && !options_.fixDryRun)
            return;
        std::map<SourceFile *, std::vector<FixRun *>> by_file;
        for (FixRun &run : fixRuns_)
            by_file[run.file].push_back(&run);

        std::ostringstream diff;
        for (auto &[file, runs] : by_file) {
            std::vector<std::string> lines = file->lines;
            diff << "--- a/" << file->relPath << "\n"
                 << "+++ b/" << file->relPath << "\n";
            for (const FixRun *run : runs) {
                diff << "@@ -" << run->lines.front() << ","
                     << run->lines.size() << " +"
                     << run->lines.front() << ","
                     << run->lines.size() << " @@\n";
                for (int line : run->lines)
                    diff << "-" << file->lines[line - 1] << "\n";
                for (int line : run->sortedLines)
                    diff << "+" << file->lines[line - 1] << "\n";
                for (std::size_t i = 0; i < run->lines.size(); ++i)
                    lines[run->lines[i] - 1] =
                        file->lines[run->sortedLines[i] - 1];
            }
            if (options_.fix) {
                std::ofstream out(fs::path(options_.root) /
                                  file->relPath);
                for (const std::string &line : lines)
                    out << line << "\n";
                for (Finding &finding : result_.findings)
                    if (finding.rule == "include-order" &&
                        finding.file == file->relPath)
                        finding.fixed = true;
            }
        }
        result_.fixDiff = diff.str();
    }

    Options options_;
    Result result_;
    std::vector<SourceFile> files_;
    SemanticIndex index_;
    std::vector<FixRun> fixRuns_;
};

} // namespace

Result
runLint(const Options &options)
{
    return Linter(options).run();
}

int
exitCodeFor(const Result &result)
{
    for (const Finding &finding : result.findings)
        if (!finding.fixed)
            return 1;
    return 0;
}

void
writeJsonReport(std::ostream &out, const Options &options,
                const Result &result)
{
    util::JsonWriter json(out);
    json.beginObject();
    json.key("schema").value("ibp-lint-v1");
    json.key("root").value(options.root);
    json.key("clean").value(exitCodeFor(result) == 0);
    json.key("files_scanned")
        .value(static_cast<std::uint64_t>(result.scannedFiles.size()));
    json.key("suppressed")
        .value(static_cast<std::int64_t>(result.suppressed));

    std::map<std::string, std::uint64_t> counts;
    for (const Finding &finding : result.findings)
        ++counts[finding.rule];
    json.key("counts").beginObject();
    for (const auto &[rule, count] : counts)
        json.key(rule).value(count);
    json.endObject();

    json.key("factory_predictors").beginObject();
    for (const auto &[name, cls] : result.factoryPredictors)
        json.key(name).value(cls);
    json.endObject();

    json.key("serde_classes").beginObject();
    for (const auto &[name, hash] : result.serdeHashes)
        json.key(name).value(hash);
    json.endObject();

    json.key("budget_predictors").beginObject();
    for (const auto &[name, hash] : result.budgetHashes)
        json.key(name).value(hash);
    json.endObject();

    json.key("findings").beginArray();
    for (const Finding &finding : result.findings) {
        json.beginObject();
        json.key("rule").value(finding.rule);
        json.key("file").value(finding.file);
        json.key("line").value(
            static_cast<std::int64_t>(finding.line));
        json.key("message").value(finding.message);
        json.key("fixed").value(finding.fixed);
        json.endObject();
    }
    json.endArray();
    json.endObject();
    out << "\n";
}

void
writeTextReport(std::ostream &out, const Result &result)
{
    for (const Finding &finding : result.findings)
        out << finding.file << ":" << finding.line << ": ["
            << finding.rule << "] " << finding.message
            << (finding.fixed ? " (fixed)" : "") << "\n";
    int open = 0;
    for (const Finding &finding : result.findings)
        if (!finding.fixed)
            ++open;
    out << (open == 0 ? "ibp_lint: clean" : "ibp_lint: ")
        << (open == 0 ? std::string()
                      : std::to_string(open) + " finding(s)");
    out << " (" << result.scannedFiles.size() << " files, "
        << result.suppressed << " suppressed)\n";
}

} // namespace ibp::lint

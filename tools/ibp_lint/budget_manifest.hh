/**
 * @file
 * Codec for tools/lint/budget_manifest.json, the hardware-budget
 * manifest.  Its two halves have different writers: `ibp_lint
 * --update-manifest` records each factory name's class and geometry
 * shape hash from source text, and `ibp budget --update` records the
 * runtime storageBits() totals.  Both read and write the file through
 * this one codec, so each preserves the other's half byte for byte.
 */

#ifndef IBP_TOOLS_IBP_LINT_BUDGET_MANIFEST_HH_
#define IBP_TOOLS_IBP_LINT_BUDGET_MANIFEST_HH_

#include <cstdint>
#include <map>
#include <string>

namespace ibp::lint {

struct BudgetManifestEntry
{
    std::string className;
    std::string shape; ///< FNV-1a geometry shape hash (hex)
    std::uint64_t storageBits = 0;
};

struct BudgetManifest
{
    std::string comment;
    std::uint64_t format = 1;
    /** Factory name (or `Prefix@*` wildcard) -> entry. */
    std::map<std::string, BudgetManifestEntry> predictors;
};

/**
 * Read the manifest at @p path.
 * @retval false the file cannot be opened; malformed JSON is fatal()
 */
bool readBudgetManifest(const std::string &path,
                        BudgetManifest &manifest);

/** Write @p manifest to @p path; false when it cannot be opened. */
bool writeBudgetManifest(const std::string &path,
                         const BudgetManifest &manifest);

} // namespace ibp::lint

#endif // IBP_TOOLS_IBP_LINT_BUDGET_MANIFEST_HH_

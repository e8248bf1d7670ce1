#include "budget_manifest.hh"

#include <fstream>
#include <sstream>

#include "util/json.hh"

namespace ibp::lint {

bool
readBudgetManifest(const std::string &path, BudgetManifest &manifest)
{
    std::ifstream in(path, std::ios::binary);
    if (!in)
        return false;
    std::ostringstream buffer;
    buffer << in.rdbuf();
    const util::JsonValue doc = util::parseJson(buffer.str());

    manifest = BudgetManifest();
    if (const util::JsonValue *comment = doc.find("comment"))
        manifest.comment = comment->asString();
    if (const util::JsonValue *format = doc.find("format"))
        manifest.format = format->asUint();
    if (const util::JsonValue *predictors = doc.find("predictors"))
        for (const auto &[name, value] : predictors->asObject()) {
            BudgetManifestEntry &entry = manifest.predictors[name];
            if (const util::JsonValue *v = value.find("class"))
                entry.className = v->asString();
            if (const util::JsonValue *v = value.find("shape"))
                entry.shape = v->asString();
            if (const util::JsonValue *v = value.find("storage_bits"))
                entry.storageBits = v->asUint();
        }
    return true;
}

bool
writeBudgetManifest(const std::string &path,
                    const BudgetManifest &manifest)
{
    std::ofstream out(path, std::ios::binary);
    if (!out)
        return false;
    {
        util::JsonWriter json(out);
        json.beginObject();
        json.key("comment").value(manifest.comment);
        json.key("format").value(manifest.format);
        json.key("predictors").beginObject();
        for (const auto &[name, entry] : manifest.predictors) {
            json.key(name).beginObject();
            json.key("class").value(entry.className);
            json.key("shape").value(entry.shape);
            json.key("storage_bits").value(entry.storageBits);
            json.endObject();
        }
        json.endObject();
        json.endObject();
    }
    out << "\n";
    return static_cast<bool>(out);
}

} // namespace ibp::lint

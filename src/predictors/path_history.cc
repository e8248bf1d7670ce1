#include "predictors/path_history.hh"

namespace ibp::pred {

const char *
streamName(StreamSel stream)
{
    switch (stream) {
      case StreamSel::AllBranches:  return "PB";
      case StreamSel::AllIndirect:  return "IND";
      case StreamSel::MtIndirect:   return "PIB";
    }
    return "?";
}

} // namespace ibp::pred

/**
 * @file
 * Strict-warning coverage for the header-only parts of sim/.
 *
 * The IBP_WERROR gate (-Werror -Wshadow -Wconversion -Wold-style-cast)
 * applies to the translation units of this library; headers that no
 * .cc file happens to include would escape it.  This TU includes every
 * sim header so the whole layer is compiled under the strict set.
 */

#include "sim/branch_study.hh"
#include "sim/budget.hh"
#include "sim/checkpoint.hh"
#include "sim/differential.hh"
#include "sim/engine.hh"
#include "sim/experiment.hh"
#include "sim/factory.hh"
#include "sim/frontend.hh"
#include "sim/fuzz.hh"
#include "sim/metrics.hh"

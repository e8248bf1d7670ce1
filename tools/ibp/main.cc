/**
 * @file
 * The `ibp` executable: a thin wrapper around ibp::cli::run().
 */

#include <iostream>
#include <string>
#include <vector>

#include "cli.hh"

int
main(int argc, char **argv)
{
    return ibp::cli::run(std::vector<std::string>(argv + 1, argv + argc),
                         std::cout, std::cerr);
}

# Passed to the program's configure step as
#   -DCMAKE_PROJECT_pfair_reweight_INCLUDE=<this file>
# It runs right after the top-level project() call and defers including
# the benchmark's CMakeLists.txt until the top-level CMakeLists.txt has
# defined every library target, without editing the program's build files.
get_filename_component(PFR_PERFBENCH_DIR
  "${CMAKE_PROJECT_pfair_reweight_INCLUDE}" DIRECTORY)
cmake_language(DEFER DIRECTORY "${CMAKE_SOURCE_DIR}"
  CALL include "${PFR_PERFBENCH_DIR}/CMakeLists.txt")

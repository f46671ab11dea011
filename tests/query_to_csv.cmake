# Runs causeway-query over one input and writes its CSV answer to a file,
# for tests that compare answers byte for byte (ctest cannot redirect a
# command's standard output).  Fails when the query exits non-zero.
#
#   cmake -DBIN=<causeway-query> -DINPUT=<trace|store> -DQUERY=<text>
#         -DOUT=<file> -P query_to_csv.cmake
execute_process(
  COMMAND "${BIN}" "${INPUT}" "--query=${QUERY}" --format=csv
  OUTPUT_FILE "${OUT}"
  RESULT_VARIABLE rc)
if(NOT rc EQUAL 0)
  message(FATAL_ERROR "causeway-query over ${INPUT} exited with ${rc}")
endif()

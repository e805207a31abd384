# Feeds fixed request lines into `insched_serve --stdin` and checks every
# answer line is valid JSON (parsed with string(JSON), so an invalid line
# fails here) holding no raw control byte, and that:
#   1. a ping with id "café" echoes the UTF-8 id "café";
#   2. a line with a raw 0x01 byte inside "op" is answered status=error;
#   3. a truncated line is answered status=error and the next line still
#      gets its answer;
#   4. a tiny problem_ini solve is answered ok.
#
#   cmake -DSERVE=<insched_serve> -DWORK_DIR=<scratch dir> -P serve_stdin_smoke.cmake

cmake_minimum_required(VERSION 3.19)  # string(JSON)

string(ASCII 1 ctl)
set(input "${WORK_DIR}/serve_stdin_smoke.in")
file(WRITE "${input}"
     "{\"op\":\"ping\",\"id\":\"caf\\u00e9\"}\n"
     "{\"op\":\"fl${ctl}y\",\"id\":\"control\"}\n"
     "{\"op\":\"ping\",\"id\":\"trunc\n"
     "{\"op\":\"ping\",\"id\":\"after\"}\n"
     "{\"op\":\"solve\",\"id\":\"ini\",\"problem_ini\":"
     "\"[run]\\nsteps = 20\\nthreshold = 0.5\\n[analysis]\\nname = a\\nct = 0.1\\nitv = 2\\n\"}\n")

execute_process(COMMAND "${SERVE}" --stdin
                INPUT_FILE "${input}"
                RESULT_VARIABLE rc
                OUTPUT_VARIABLE out
                ERROR_VARIABLE err)
if(NOT rc EQUAL 0)
  message(FATAL_ERROR "insched_serve --stdin exited ${rc}\n${out}\n${err}")
endif()

# Split on newlines by position: a list would also split on ';'.
set(lines_seen 0)
while(NOT out STREQUAL "")
  string(FIND "${out}" "\n" eol)
  if(eol EQUAL -1)
    message(FATAL_ERROR "unterminated answer line: ${out}")
  endif()
  string(SUBSTRING "${out}" 0 ${eol} line)
  math(EXPR next "${eol} + 1")
  string(SUBSTRING "${out}" ${next} -1 out)
  math(EXPR lines_seen "${lines_seen} + 1")
  foreach(code RANGE 1 31)
    string(ASCII ${code} byte)
    string(FIND "${line}" "${byte}" at)
    if(NOT at EQUAL -1)
      message(FATAL_ERROR "answer ${lines_seen} holds raw control byte ${code}: ${line}")
    endif()
  endforeach()
  string(JSON id GET "${line}" id)
  string(JSON status GET "${line}" status)
  set(answer_${lines_seen} "${id}|${status}")
endwhile()

set(expected "café|ok" "|error" "|error" "after|ok" "ini|ok")
list(LENGTH expected count)
if(NOT lines_seen EQUAL count)
  message(FATAL_ERROR "expected ${count} answer lines, got ${lines_seen}")
endif()
set(index 0)
foreach(want IN LISTS expected)
  math(EXPR index "${index} + 1")
  if(NOT answer_${index} STREQUAL want)
    message(FATAL_ERROR "answer ${index}: got '${answer_${index}}', expected '${want}'")
  endif()
endforeach()
message(STATUS "insched_serve --stdin answered all ${count} lines as valid JSON")

let unused x = x + 1
let used x = unused x
let test_only x = x * 2

module Nested = struct
  let deep x = x - 1
  let orphan x = x
end

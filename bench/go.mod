module mqsched/bench

go 1.22

require mqsched v0.0.0

replace mqsched => ../
